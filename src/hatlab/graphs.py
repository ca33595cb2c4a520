"""Graph constructions and exact maximum independent set search.

Graphs are immutable: per-vertex adjacency bitsets plus explicit self-loop
flags. Self-looped vertices stay in the vertex set (so indexing matches
{0,1}^n point values everywhere) but are excluded from every independent set.
"""

from __future__ import annotations

import random
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import UnsupportedSizeError

MAX_KNESER_N = 13
MAX_PRODUCT_VERTICES = 1 << 16  # rows of v vertices cost v^2/8 bytes: 512 MiB here
MAX_MIS_VERTICES = 4096
MAX_SHIFT_M = 64
MAX_GENERATED_VERTICES = 4096  # complete, edgeless and G(n, p) graphs
MAX_SUBSET_DP_VERTICES = 20  # subset-DP budget; the advertised contract is vcount <= 16
MAX_LISTED_SETS = 200_000  # sets an enumeration lists before UnsupportedSizeError


def _bits(m: int) -> list[int]:
    """The set bits of m in ascending order: the members of the set with bitmask m."""
    out = []
    while m:
        out.append((m & -m).bit_length() - 1)
        m &= m - 1
    return out


@dataclass(frozen=True)
class Graph:
    vcount: int
    adj: tuple[int, ...]
    self_loop: tuple[bool, ...]
    label: str

    @cached_property
    def eligible(self) -> int:
        """Bitmask of the vertices without a self-loop: those an independent set may use."""
        mask = 0
        for v in range(self.vcount):
            if not self.self_loop[v]:
                mask |= 1 << v
        return mask

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return self.self_loop[u]
        return bool(self.adj[u] >> v & 1)

    def with_edge(self, u: int, v: int) -> "Graph":
        """Copy of the graph with one extra edge (u != v)."""
        if u == v:
            raise ValueError("use self_loop for diagonal entries")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph(self.vcount, tuple(adj), self.self_loop, f"{self.label}+e")


def _empty_adj(n: int) -> list[int]:
    return [0] * n


def kneser(n: int) -> Graph:
    """Disjointness graph on {0,1}^n; the all-zero vertex is self-adjacent."""
    if n <= 0:
        raise ValueError(f"need n >= 1, got n={n}")
    if n > MAX_KNESER_N:
        raise UnsupportedSizeError(f"kneser supports 1 <= n <= {MAX_KNESER_N}, got {n}")
    # subs[c] has bit s set for every submask s of c, built by doubling: the
    # submasks of c | h, for h above c's top bit, are those of c and each plus h
    subs = [1]
    for b in range(n):
        subs += [s | s << (1 << b) for s in subs]
    # the neighbours of x are the submasks of its complement; only x = 0 is
    # one of them, and that is its self-loop
    adj = subs[::-1]
    adj[0] ^= 1
    size = 1 << n
    return Graph(size, tuple(adj), (True,) + (False,) * (size - 1), f"kneser({n})")


def hamming_product(g: Graph, h: Graph) -> Graph:
    """Cartesian (box) product; vertex (x, v) has index x * h.vcount + v."""
    vcount = g.vcount * h.vcount
    if vcount > MAX_PRODUCT_VERTICES:
        raise UnsupportedSizeError(
            f"product would have {vcount} vertices, over {MAX_PRODUCT_VERTICES}"
        )
    hv = h.vcount
    adj = _empty_adj(vcount)
    for x in range(g.vcount):
        # row (x, v) is h's row v in fiber x plus bit (y, v) for each neighbour y of x
        fiber = 0
        m = g.adj[x]
        while m:
            low = m & -m
            fiber |= 1 << (low.bit_length() - 1) * hv
            m ^= low
        base = x * hv
        adj[base : base + hv] = [a << base | fiber << v for v, a in enumerate(h.adj)]
    loop = [gl or hl for gl in g.self_loop for hl in h.self_loop]
    return Graph(vcount, tuple(adj), tuple(loop), f"product({g.label},{h.label})")


def hamming_power(g: Graph, t: int) -> Graph:
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    # checked before any factor is built: kneser(2)^9 would first build K(2)^8.
    # Past t = 64 a graph of two or more vertices is over the cap anyway.
    if t > 1 and g.vcount ** min(t, 64) > MAX_PRODUCT_VERTICES:
        raise UnsupportedSizeError(
            f"power would have {g.vcount}^{t} vertices, over {MAX_PRODUCT_VERTICES}"
        )
    out = g
    # a graph of at most one vertex is its own power
    for _ in range(t - 1 if g.vcount > 1 else 0):
        out = hamming_product(out, g)
    if t > 1:
        out = Graph(out.vcount, out.adj, out.self_loop, f"power({g.label},{t})")
    return out


def shift_graph(m: int) -> Graph:
    """Vertices are ordered pairs over [m]; (i,j) meets (j,k) whenever i != k.

    The i != k restriction means (i,j)-(j,i) is not an edge and no vertex is
    self-adjacent.
    """
    if m <= 0:
        raise ValueError(f"need m >= 1, got m={m}")
    if not 2 <= m <= MAX_SHIFT_M:
        raise UnsupportedSizeError(f"shift_graph supports 2 <= m <= {MAX_SHIFT_M}, got {m}")
    # (i,j) meets (j,k) for k != i and (h,i) for h != j: the row is block j
    # and column i, less their shared bit (j,i)
    block = (1 << m) - 1
    column = sum(1 << h * m for h in range(m))
    vcount = m * m
    adj = [
        (block << j * m | column << i) & ~(1 << (j * m + i)) for i in range(m) for j in range(m)
    ]
    return Graph(vcount, tuple(adj), (False,) * vcount, f"shift({m})")


def _check_count(m: int, builder: str) -> None:
    # checked before any row is allocated: complete(10^6) would ask for 125 GB
    if m < 0:
        raise ValueError(f"need a vertex count >= 0, got {m}")
    if m > MAX_GENERATED_VERTICES:
        raise UnsupportedSizeError(
            f"{builder} supports n <= {MAX_GENERATED_VERTICES}, got {m}"
        )


def complete_graph(m: int) -> Graph:
    _check_count(m, "complete_graph")
    full = (1 << m) - 1
    adj = tuple(full ^ (1 << v) for v in range(m))
    return Graph(m, adj, (False,) * m, f"complete({m})")


def edgeless_graph(m: int) -> Graph:
    _check_count(m, "edgeless_graph")
    return Graph(m, (0,) * m, (False,) * m, f"edgeless({m})")


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with edges drawn pair-by-pair from random.Random(seed)."""
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    _check_count(n, "random_graph")
    rng = random.Random(seed)
    adj = _empty_adj(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj), (False,) * n, f"gnp({n},{p},{seed})")


@dataclass(frozen=True)
class MisResult:
    set_bits: int
    size: int
    alpha_bar: Fraction
    nodes_explored: int

    def vertices(self) -> tuple[int, ...]:
        return tuple(_bits(self.set_bits))


def _with_recursion_room(pool: int, search, *args):
    """search(*args) under a recursion limit raised by one frame per vertex of pool.

    Each search recurses one frame per branch level, and each level takes a
    vertex out of the pool. A core of about 1000 vertices would otherwise
    pass the default limit. It is a plain call, not a context manager,
    because alpha** Monte Carlo makes thousands of searches: 0.3 against
    2.3 us a call (2-core x86-64 host, Python 3.11).
    """
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(old + pool.bit_count() + 16)
    try:
        return search(*args)
    finally:
        sys.setrecursionlimit(old)


def _cover_rest(adj: tuple[int, ...], pool: int, k: int) -> int:
    """The vertices of pool outside the first k cliques of its greedy cover.

    The cover partitions the pool into cliques, each grown from its lowest
    remaining vertex through its lowest remaining common neighbours. An
    independent set takes at most one vertex per clique, so an empty rest
    proves that the pool holds no independent set of more than k vertices,
    and any set of more than k vertices uses a vertex of the rest. k <= 0
    returns the pool.
    """
    rest = pool
    while rest and k > 0:
        low = rest & -rest
        cand = rest & adj[low.bit_length() - 1]
        rest ^= low
        while cand:
            u = cand & -cand
            rest ^= u
            cand &= adj[u.bit_length() - 1]
        k -= 1
    return rest


def _greedy_lower(adj: tuple[int, ...], pool: int) -> tuple[int, int]:
    # ascending (degree in pool, vertex), packed as one int per vertex
    chosen = 0
    blocked = 0
    for key in sorted((adj[v] & pool).bit_count() << 32 | v for v in _bits(pool)):
        v = key & 0xFFFFFFFF
        if not (blocked >> v & 1):
            chosen |= 1 << v
            blocked |= adj[v] | (1 << v)
    return chosen.bit_count(), chosen


def _peel(adj: tuple[int, ...], p: int) -> tuple[int, int, int, int]:
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


# a byte lane holds 0x80 + degree, so a degree vector needs every degree <= 127
MAX_LANE_DEGREE = 0x7F
_BIT_LANES = bytes.maketrans(b"01", b"\x00\x01")


def _byte_lanes(m: int) -> int:
    """Bitmask m spread to one byte lane per bit: lane v is 1 where bit v is set."""
    return int.from_bytes(bin(m)[:1:-1].encode().translate(_BIT_LANES), "little")


def _mis_search(adj: tuple[int, ...], pool: int) -> tuple[int, int, int]:
    """Exact max independent set within pool: (size, set_bits, nodes).

    One recursive `node`, one frame per branch level, peels the vertices of
    degree 0 or 1 as `_peel` does and branches on the vertex that peel
    picks: include it, then exclude it. A node is pruned when the greedy
    clique cover leaves no vertex after as many cliques as there is room
    under the incumbent (`_cover_rest`). The root runs `_peel` and this
    check itself, so a graph that closes there builds no lanes (for K(2)^6
    they would take 21 ms, the whole search takes 6 ms).

    When every degree in the root's peeled core is at most MAX_LANE_DEGREE,
    the nodes peel with a degree vector: one int whose byte lane v holds
    0x80 + deg_p(v) while v is in the pool p, and deg_p(v) alone (below
    0x80) once v has left it. Dropping v subtracts a precomputed int, 0x80
    in lane v plus one in the lane of each core neighbour. Each take is a
    C-level search of the lanes for a 0x80 or 0x81 byte, resumed after the
    last take, and the branch vertex is the first largest byte: `_peel`'s
    take order and branch vertex, because degrees only fall. A core degree
    over MAX_LANE_DEGREE fits no lane; then drop is None and every node
    runs `_peel`.
    """
    best_size, best_set = _greedy_lower(adj, pool)
    core, taken, _, _ = _peel(adj, pool)
    size = taken.bit_count()
    if not _cover_rest(adj, core, best_size - size):
        # a leaf, or pruned: a nonempty core is pruned only below the incumbent
        if size > best_size:
            best_size, best_set = size, taken
        return best_size, best_set, 1
    width = core.bit_length()
    verts = _bits(core)
    drop = None
    if max((adj[v] & core).bit_count() for v in verts) <= MAX_LANE_DEGREE:
        drop = [0] * width
        for v in verts:
            drop[v] = _byte_lanes(adj[v] & core) + (0x80 << 8 * v)
    nodes = 0

    def node(p: int, deg: int, size: int, chosen: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if drop is None:
            p, taken, branch, _ = _peel(adj, p)
            size += taken.bit_count()
            chosen |= taken
        else:
            lanes = deg.to_bytes(width, "little")
            start = 0
            while True:
                v = lanes.find(b"\x80", start)
                w = lanes.find(b"\x81", start)
                if w >= 0 and not 0 <= v < w:
                    v = w
                if v < 0:
                    # start > 0 exactly when this pass took a vertex: pass again
                    if not start:
                        break
                    start = 0
                    continue
                # degree 0 or 1: take the vertex, drop it and its neighbour
                low = 1 << v
                d = adj[v] & p
                p ^= d | low
                chosen |= low
                size += 1
                deg -= drop[v]
                if d:
                    deg -= drop[d.bit_length() - 1]
                lanes = deg.to_bytes(width, "little")
                start = v + 1
        if not _cover_rest(adj, p, best_size - size):
            if size > best_size:
                best_size, best_set = size, chosen
            return
        # include v (drop its closed neighbourhood), then exclude it
        v = branch.bit_length() - 1 if drop is None else lanes.index(max(lanes))
        low = 1 << v
        nbrs = adj[v] & p
        inc = deg
        if drop is not None:
            inc = deg = deg - drop[v]
            m = nbrs
            while m:
                inc -= drop[(m & -m).bit_length() - 1]
                m &= m - 1
        node(p & ~(nbrs | low), inc, size + 1, chosen | low)
        node(p ^ low, deg, size, chosen)

    # node 1 is the root again: its core peels nothing more and passes the same check
    try:
        node(core, 0 if drop is None else sum(drop), size, taken)
    finally:
        del node  # node reaches itself through this scope: break the cycle
    return best_size, best_set, nodes


def _verify_independent(g: Graph, set_bits: int) -> None:
    for v in _bits(set_bits):
        if g.self_loop[v]:
            raise AssertionError(f"vertex {v} is self-looped but was selected")
        if g.adj[v] & set_bits:
            raise AssertionError(f"vertex {v} has a neighbour inside the set")


def max_independent_set(g: Graph) -> MisResult:
    """Exact maximum independent set via branch and bound. Always exact."""
    if g.vcount == 0:
        raise ValueError("the independence ratio of a graph with no vertices is undefined")
    if g.vcount > MAX_MIS_VERTICES:
        raise UnsupportedSizeError(
            f"exact MIS supports up to {MAX_MIS_VERTICES} vertices, got {g.vcount}; "
            "use a sampling lower bound instead"
        )
    size, set_bits, nodes = _with_recursion_room(g.eligible, _mis_search, g.adj, g.eligible)
    _verify_independent(g, set_bits)
    return MisResult(
        set_bits=set_bits,
        size=size,
        alpha_bar=Fraction(size, g.vcount),
        nodes_explored=nodes,
    )


def _min_degree_greedy(adj: tuple[int, ...], pool: int) -> tuple[int, int]:
    """A maximal independent set within pool: (size, set_bits).

    Each step takes a vertex of minimum degree in what is left of the pool
    (lowest index on ties) and drops it and its neighbours. A vertex of
    degree 0 or 1 ends the scan early: some maximum independent set of the
    pool holds it, as `_peel` relies on too.
    """
    chosen = 0
    while pool:
        best_deg = pool.bit_count()
        m = pool
        while m:
            low = m & -m
            m ^= low
            a = adj[low.bit_length() - 1]
            d = (a & pool).bit_count()
            if d < best_deg:
                best_deg, best, best_adj = d, low, a
                if d <= 1:
                    break
        chosen |= best
        pool &= ~(best_adj | best)
    return chosen.bit_count(), chosen


def _mis_size_node(adj: tuple[int, ...], p: int, size: int, best: int | None) -> int:
    """max(best, size + alpha of p): `_mis_size_node(adj, pool, 0, None)` is alpha of pool.

    Unlike `_mis_search`, whose set and node count `hatlab alpha` prints and
    tests pin, this size-only search is free to branch differently, and it
    walks fewer nodes on the shallow subset searches of alpha** Monte Carlo.
    It runs `_peel` at every node, without lanes: its pools are small and
    peel few vertices, so lanes cost more to set up than they save (on the
    alpha** draws, `K(3)^2` went from 0.08 to 0.12 s). At the root (best is
    None) the incumbent is the peeled vertices plus `_min_degree_greedy` on
    the core they leave: run on the raw pool, the greedy costs more than it
    saves. The greedy clique cover then takes `best - size` cliques; an
    improving set needs a vertex of what they leave over, B (`_cover_rest`).
    Empty B prunes. When B has at most two vertices, the node branches once
    per vertex of B, each child dropping the vertices branched on before it:
    the child that excludes all of B could not improve, so this never makes
    more children than a binary branch. A larger B gets the binary
    include/exclude branch on `_peel`'s vertex.
    """
    p, taken, branch, branch_adj = _peel(adj, p)
    size += taken.bit_count()
    if best is None:
        best = size + _min_degree_greedy(adj, p)[0]
    if p == 0:
        return size if size > best else best
    rest = _cover_rest(adj, p, best - size)
    if not rest:
        return best
    if rest.bit_count() <= 2:
        while rest:
            low = rest & -rest
            rest ^= low
            best = _mis_size_node(adj, p & ~(adj[low.bit_length() - 1] | low), size + 1, best)
            p ^= low
        return best
    best = _mis_size_node(adj, p & ~(branch_adj | branch), size + 1, best)
    return _mis_size_node(adj, p ^ branch, size, best)


def mis_size_in_subset(g: Graph, subset: int) -> int:
    """Size of the largest independent set using only vertices in `subset`."""
    pool = subset & g.eligible
    return _with_recursion_room(pool, _mis_size_node, g.adj, pool, 0, None)


def mis_size_all_subsets(g: Graph) -> bytes:
    """alpha(G[W]) for every W, by subset DP. Needs vcount <= MAX_SUBSET_DP_VERTICES.

    Returns bytes of length 2^vcount whose byte w is alpha(G[W]) for the
    vertex set W with bitmask w. The table lives in one int, one byte lane
    per subset. Adding vertex h appends the block of subsets that contain h:
    lane r of that block is max(a[r], 1 + a[r & ~adj[h]]), computed for all
    lanes at once. As a[r & ~adj[h]] <= a[r] (alpha is monotone in W), that
    max is a[r] + 1 exactly where a[r & ~adj[h]] >= a[r], and a[r] elsewhere.
    """
    if g.vcount > MAX_SUBSET_DP_VERTICES:
        raise UnsupportedSizeError(
            f"subset DP needs vcount <= {MAX_SUBSET_DP_VERTICES}, got {g.vcount}"
        )
    # Every lane holds a value <= MAX_SUBSET_DP_VERTICES < 128, so
    # (lane | 0x80) - lane never borrows from the next lane and a[r] + 1
    # never carries into it.
    a = 0  # alpha of the empty graph, the one subset of no vertices
    for h in range(g.vcount):
        lanes = 1 << h
        if g.self_loop[h]:
            a |= a << (8 * lanes)
            continue
        # gather a[r & ~adj[h]]: per neighbour j, copy each lane with bit j
        # clear onto the lane with bit j set
        gathered = a
        nbrs = g.adj[h] & (lanes - 1)
        while nbrs:
            j = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            run = 1 << j
            pattern = (b"\xff" * run + b"\x00" * run) * (lanes >> (j + 1))
            gathered &= int.from_bytes(pattern, "little")
            gathered |= gathered << (8 * run)
        high = int.from_bytes(b"\x80" * lanes, "little")
        # 0x80 in the lanes where gathered >= a, 0 elsewhere
        ge = ((gathered | high) - a) & high
        a |= (a + (ge >> 7)) << (8 * lanes)
    return a.to_bytes(1 << g.vcount, "little")


def inclusion_maximal_independent_sets(g: Graph) -> list[int]:
    """Every inclusion-maximal independent set (Bron-Kerbosch with pivoting).

    A strictly larger family than maximum_independent_sets, with the same
    cap; useful when "largest" and "unextendable" differ.
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
            if len(out) > MAX_LISTED_SETS:
                raise UnsupportedSizeError(
                    f"more than {MAX_LISTED_SETS} maximal independent sets"
                )
            return
        px = p | x
        best = -1
        m = px
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            c = (nonadj[u] & p).bit_count()
            if c > best:
                best, pivot = c, u
        cand = p & ~nonadj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            bk(r | (1 << v), p & nonadj[v], x & nonadj[v])
            p &= ~(1 << v)
            x |= 1 << v

    try:
        _with_recursion_room(eligible, bk, 0, eligible, 0)
    finally:
        del bk
    return sorted(out)


def maximum_independent_sets(g: Graph) -> list[int]:
    """Every maximum independent set, as ascending bitmasks (at most MAX_LISTED_SETS)."""
    alpha = max_independent_set(g).size
    pool = g.eligible
    adj = g.adj
    out: list[int] = []

    def node(p: int, size: int, chosen: int) -> None:
        if size + p.bit_count() < alpha:
            return
        if size == alpha:
            out.append(chosen)
            if len(out) > MAX_LISTED_SETS:
                raise UnsupportedSizeError(
                    f"more than {MAX_LISTED_SETS} maximum independent sets"
                )
            return
        # prune when the cover shows the set cannot still reach alpha
        if not _cover_rest(adj, p, alpha - size - 1):
            return
        v = (p & -p).bit_length() - 1
        node(p & ~adj[v] & ~(1 << v), size + 1, chosen | (1 << v))
        node(p & ~(1 << v), size, chosen)

    try:
        _with_recursion_room(pool, node, pool, 0, 0)
    finally:
        del node
    return sorted(out)


# --- import / export -------------------------------------------------------

BINARY_MAGIC = b"HLG1"


def graph_to_text(g: Graph) -> str:
    """Adjacency-list text; a vertex listing itself marks a self-loop."""
    lines = [str(g.vcount)]
    for v in range(g.vcount):
        # no adjacency row sets its own bit, so the self-loop bit is free
        lines.append(f"{v}: " + " ".join(map(str, _bits(g.adj[v] | g.self_loop[v] << v))))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """Inverse of graph_to_text; the graph is labelled "imported".

    A vertex count outside [0, MAX_PRODUCT_VERTICES] or a vertex id outside
    [0, vcount) is a ValueError; the count is checked before any allocation.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("graph text is empty; expected a vertex count line")
    vcount = int(lines[0])
    if not 0 <= vcount <= MAX_PRODUCT_VERTICES:
        raise ValueError(f"vertex count {vcount} outside [0, {MAX_PRODUCT_VERTICES}]")
    adj = _empty_adj(vcount)
    loop = [False] * vcount
    for ln in lines[1:]:
        head, _, rest = ln.partition(":")
        v = int(head)
        nbrs = [int(tok) for tok in rest.split()]
        for u in (v, *nbrs):
            if not 0 <= u < vcount:
                raise ValueError(f"vertex {u} outside [0, {vcount}) in line {ln!r}")
        for u in nbrs:
            if u == v:
                loop[v] = True
            else:
                adj[v] |= 1 << u
                adj[u] |= 1 << v
    return Graph(vcount, tuple(adj), tuple(loop), "imported")


def graph_to_bytes(g: Graph) -> bytes:
    """Compact bitset format: magic, u32 vcount, then one row per vertex.

    Each row is ceil(vcount / 8) bytes little-endian; bit v of row u is set
    for an edge u-v, and bit u of row u marks a self-loop.
    """
    row_len = (g.vcount + 7) // 8
    out = [BINARY_MAGIC, struct.pack("<I", g.vcount)]
    for v in range(g.vcount):
        row = g.adj[v] | (1 << v if g.self_loop[v] else 0)
        out.append(row.to_bytes(row_len, "little"))
    return b"".join(out)


def graph_from_bytes(data: bytes) -> Graph:
    """Inverse of graph_to_bytes; the graph is labelled "imported".

    Raises ValueError unless the data is exactly one header and vcount rows,
    no row sets a bit at or above vcount, and the rows are symmetric.
    """
    if data[:4] != BINARY_MAGIC:
        raise ValueError(f"bad magic {data[:4]!r}, expected {BINARY_MAGIC!r}")
    if len(data) < 8:
        raise ValueError(f"{len(data)}-byte file ends inside the 8-byte header")
    (vcount,) = struct.unpack("<I", data[4:8])
    row_len = (vcount + 7) // 8
    if len(data) != 8 + vcount * row_len:
        raise ValueError(
            f"{len(data)}-byte file, but {vcount} vertices need {8 + vcount * row_len} bytes"
        )
    adj = []
    loop = []
    off = 8
    for v in range(vcount):
        row = int.from_bytes(data[off : off + row_len], "little")
        off += row_len
        if row >> vcount:
            raise ValueError(f"row {v} sets a bit at or above vcount {vcount}")
        loop.append(bool(row >> v & 1))
        adj.append(row & ~(1 << v))
    for u, row in enumerate(adj):
        for v in _bits(row):
            if not adj[v] >> u & 1:
                raise ValueError(f"rows are not symmetric: edge {u}-{v} but not {v}-{u}")
    return Graph(vcount, tuple(adj), tuple(loop), "imported")
