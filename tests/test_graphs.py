"""Graph constructions, exact MIS, and the import/export formats."""

from __future__ import annotations

import gc
import hashlib
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from hatlab import graphs as graphs_module
from hatlab.blockers import min_graph_blocker
from hatlab.errors import UnsupportedSizeError
from hatlab.game import stream_rng
from hatlab.graphs import (
    MAX_PRODUCT_VERTICES,
    Graph,
    _mis_search,
    _peel,
    _verify_independent,
    complete_graph,
    edgeless_graph,
    graph_from_bytes,
    graph_from_text,
    graph_to_bytes,
    graph_to_text,
    hamming_power,
    hamming_product,
    kneser,
    max_independent_set,
    maximum_independent_sets,
    mis_size_all_subsets,
    mis_size_in_subset,
    random_graph,
    shift_graph,
)

from mis_reference import inclusion_maximal_independent_sets
from mis_search_reference import reference_mis_search

# gnp(8, 0.5, 42), frozen from the first run of the seeded generator
GNP_8_05_42_EDGES = [
    (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 7),
    (2, 3), (2, 6), (3, 5), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
]


def brute_force_alpha(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.vcount):
        ok = True
        m = mask
        while m and ok:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if g.self_loop[v] or g.adj[v] & mask:
                ok = False
        if ok:
            best = max(best, mask.bit_count())
    return best


# --- kneser -----------------------------------------------------------------


def test_kneser_1():
    g = kneser(1)
    assert g.vcount == 2
    assert g.self_loop == (True, False)
    assert g.adj[0] == 0b10 and g.adj[1] == 0b01


def test_kneser_2_edges():
    g = kneser(2)
    # 01 and 10 are disjoint; 0 is disjoint from everything and itself
    assert g.has_edge(1, 2)
    assert not g.has_edge(1, 3) and not g.has_edge(2, 3)
    assert all(g.has_edge(0, v) for v in (1, 2, 3))
    assert g.self_loop[0] and not any(g.self_loop[1:])


def test_diagonal_entries_are_self_loops():
    g = kneser(2)
    assert g.has_edge(0, 0) and not g.has_edge(1, 1)
    with pytest.raises(ValueError, match="use self_loop for diagonal entries"):
        g.with_edge(1, 1)


def test_verify_independent_rejects_an_edge_or_a_self_loop():
    g = shift_graph(4)
    u = g.adj[0].bit_length() - 1
    with pytest.raises(AssertionError, match="vertex 0 has a neighbour inside the set"):
        _verify_independent(g, 1 | 1 << u)
    with pytest.raises(AssertionError, match="vertex 0 is self-looped"):
        _verify_independent(kneser(2), 0b1)
    _verify_independent(kneser(2), 0b1010)  # 01 and 11 meet: no edge


def test_kneser_3_edge_count_recount():
    g = kneser(3)
    count = sum(
        1
        for x in range(8)
        for y in range(x + 1, 8)
        if x & y == 0
    )
    assert g.edge_count() == count


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kneser_alpha_is_half(n):
    res = max_independent_set(kneser(n))
    assert res.size == 1 << (n - 1)
    assert res.alpha_bar == Fraction(1, 2)


def test_kneser_budget():
    with pytest.raises(UnsupportedSizeError):
        kneser(14)


@pytest.mark.parametrize("build", [kneser, shift_graph])
@pytest.mark.parametrize("n", [0, -1])
def test_non_positive_kneser_and_shift_sizes_are_usage_errors(build, n):
    with pytest.raises(ValueError, match=">= 1"):
        build(n)


def test_shift_graph_of_one_point_is_an_unsupported_size():
    # a positive size outside the supported range stays UnsupportedSizeError
    with pytest.raises(UnsupportedSizeError):
        shift_graph(1)


@pytest.mark.parametrize("t", [0, -1])
def test_non_positive_power_is_a_usage_error(t):
    with pytest.raises(ValueError, match="t >= 1"):
        hamming_power(kneser(2), t)


# --- products ---------------------------------------------------------------


def test_product_of_single_edges_is_four_cycle():
    k2 = Graph(2, (0b10, 0b01), (False, False), "K2")
    c4 = hamming_product(k2, k2)
    assert c4.vcount == 4
    assert c4.edge_count() == 4
    assert all(c4.degree(v) == 2 for v in range(4))
    # opposite corners (0,0)-(1,1) and (0,1)-(1,0) are not adjacent
    assert not c4.has_edge(0, 3) and not c4.has_edge(1, 2)


def test_product_self_loops_inherited_fiberwise():
    g = hamming_product(kneser(1), kneser(1))
    # vertex (x, v) is self looped iff x == 0 or v == 0
    assert [g.self_loop[i] for i in range(4)] == [True, True, True, False]


def test_product_edges_match_definition():
    g, h = kneser(2), kneser(1)
    p = hamming_product(g, h)
    for x in range(g.vcount):
        for v in range(h.vcount):
            for y in range(g.vcount):
                for u in range(h.vcount):
                    a, b = x * h.vcount + v, y * h.vcount + u
                    if a == b:
                        continue
                    expected = (x == y and h.has_edge(v, u) and v != u) or (
                        v == u and g.has_edge(x, y) and x != y
                    )
                    assert p.has_edge(a, b) == expected


def test_product_associativity_is_the_identity_indexing():
    a, b, c = kneser(1), kneser(2), complete_graph(3)
    left = hamming_product(hamming_product(a, b), c)
    right = hamming_product(a, hamming_product(b, c))
    assert left.adj == right.adj
    assert left.self_loop == right.self_loop


def test_power_one_is_identity():
    g = kneser(2)
    assert hamming_power(g, 1).adj == g.adj


def _no_product(g, h):
    raise AssertionError("a factor was built")


def _no_rows(n):
    raise AssertionError(f"{n} rows were allocated")


def test_power_of_at_most_one_vertex_builds_no_product(monkeypatch):
    # a t-deep loop of products used to run, however large t was
    monkeypatch.setattr(graphs_module, "hamming_product", _no_product)
    g = hamming_power(edgeless_graph(0), 10**9)
    assert (g.vcount, g.adj, g.label) == (0, (), "power(edgeless(0),1000000000)")
    g = hamming_power(Graph(1, (0,), (True,), "looped(1)"), 10**9)
    assert (g.vcount, g.self_loop, g.label) == (1, (True,), "power(looped(1),1000000000)")


@pytest.mark.parametrize(
    "base,t", [(2, 9), (5, 4), (2, 10**12)], ids=["kneser2^9", "kneser5^4", "kneser2^huge"]
)
def test_power_over_the_product_cap_raises_before_building_a_factor(base, t, monkeypatch):
    # K(2)^9 used to build K(2)^8 (484 MiB) and then ask for 8 GiB of rows;
    # K(5)^4 has 2^20 vertices and asked for 128 GiB
    monkeypatch.setattr(graphs_module, "hamming_product", _no_product)
    with pytest.raises(UnsupportedSizeError, match=f"over {MAX_PRODUCT_VERTICES}"):
        hamming_power(kneser(base), t)


def test_product_cap_is_a_row_budget_that_admits_kneser2_power8(monkeypatch):
    # v^2/8 bytes of rows: 512 MiB at the cap, which K(2)^8 = 4^8 vertices meets
    assert MAX_PRODUCT_VERTICES**2 // 8 == 512 << 20
    shapes = []

    def shape_only(g, h):
        shapes.append((g.vcount, h.vcount))
        return Graph(g.vcount * h.vcount, (), (), "shape")

    monkeypatch.setattr(graphs_module, "hamming_product", shape_only)
    assert hamming_power(kneser(2), 8).vcount == 4**8 == MAX_PRODUCT_VERTICES
    assert len(shapes) == 7
    monkeypatch.undo()
    # K(10) x K(10) has 2^20 vertices, so 128 GiB of rows: refused before any row
    k10 = kneser(10)
    monkeypatch.setattr(graphs_module, "_empty_adj", _no_rows)
    with pytest.raises(UnsupportedSizeError, match="over 65536"):
        hamming_product(k10, k10)


def test_fiber_bound():
    for g, h in [(kneser(2), kneser(3)), (shift_graph(4), kneser(2))]:
        ab = max_independent_set(hamming_product(g, h)).alpha_bar
        assert ab <= min(
            max_independent_set(g).alpha_bar, max_independent_set(h).alpha_bar
        )


def test_power_monotone_in_t():
    # kneser(3)^3 at 512 vertices exceeds the practical branch-and-bound
    # budget, so the grid stops at (n=2, t=3) and (n=3, t=2)
    for n, tmax in [(2, 3), (3, 2)]:
        values = [
            max_independent_set(hamming_power(kneser(n), t)).alpha_bar
            for t in range(1, tmax + 1)
        ]
        assert values == sorted(values, reverse=True)


# --- shift graph ------------------------------------------------------------


def test_shift_graph_matches_definition_loop():
    for m in (2, 3, 4):
        g = shift_graph(m)
        edges = set()
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if i != k:
                        u, v = i * m + j, j * m + k
                        if u != v:
                            edges.add((min(u, v), max(u, v)))
        got = {
            (u, v)
            for u in range(g.vcount)
            for v in range(u + 1, g.vcount)
            if g.has_edge(u, v)
        }
        assert got == edges
        assert not any(g.self_loop)


def test_shift_reversed_pair_is_not_an_edge():
    g = shift_graph(4)
    assert not g.has_edge(0 * 4 + 1, 1 * 4 + 0)


@pytest.mark.parametrize("m", [4, 6])
def test_shift_alpha_quarter(m):
    assert max_independent_set(shift_graph(m)).alpha_bar == Fraction(1, 4)


def test_shift_product_set_is_independent():
    # A x B for the equipartition A = {0, 1}, B = {2, 3}
    g = shift_graph(4)
    cells = [a * 4 + b for a in (0, 1) for b in (2, 3)]
    for u, v in combinations(cells, 2):
        assert not g.has_edge(u, v)
    assert max_independent_set(g).size == len(cells)


# --- random graphs ----------------------------------------------------------


def test_random_graph_extremes():
    assert random_graph(6, 0.0, 1).edge_count() == 0
    assert random_graph(6, 1.0, 1).edge_count() == 15
    for p in (-0.1, 1.5):
        with pytest.raises(ValueError, match="need 0 <= p <= 1"):
            random_graph(6, p, 1)


def test_random_graph_golden_and_reproducible():
    g = random_graph(8, 0.5, 42)
    edges = [
        (u, v) for u in range(8) for v in range(u + 1, 8) if g.adj[u] >> v & 1
    ]
    assert edges == GNP_8_05_42_EDGES
    assert random_graph(8, 0.5, 42).adj == g.adj
    assert random_graph(8, 0.5, 43).adj != g.adj


# --- constructor pins -------------------------------------------------------


def _kneser_power(n: int, t: int) -> Graph:
    return hamming_power(kneser(n), t)


# (builder, label, sha256 of graph_to_bytes), recorded from the per-bit
# constructors: every closed-form row must give the same bytes and label
CONSTRUCTOR_DIGESTS = [
    (lambda: kneser(1), "kneser(1)",
     "bea0faae3f4728d7970111db5c1e1876495936ed0fc302a1b96829e98776ddef"),
    (lambda: kneser(2), "kneser(2)",
     "f866eefa0bbc16cbe714a7dec4fd40ae59569d486488b5479234c7c3ba99bb57"),
    (lambda: kneser(3), "kneser(3)",
     "7daaf674738a11e8de93143d64aeeab0ceb90c6e627a7dceb92a405d9b1460a6"),
    (lambda: kneser(4), "kneser(4)",
     "36fc1be71803090dd8378f222e2473e1c16d5e22af072566d2c5da1560455684"),
    (lambda: kneser(5), "kneser(5)",
     "843db0a5714c9501a3913323c6ddcdfc4ff48a7b97a0cd25628b127f09159e3b"),
    (lambda: kneser(6), "kneser(6)",
     "7374e92c2cad79a8751551f978652ba2f32ca1ed0fa29c671787412b7a845f9f"),
    (lambda: kneser(7), "kneser(7)",
     "9da14d1792a8c343f0810b096857707a3f1f03ee643a4efd446c8fd620598c6d"),
    (lambda: kneser(8), "kneser(8)",
     "ab5018156c908a618844cab9a90c9c53b957fcffc1553133d43a37cc89feb9e3"),
    (lambda: kneser(9), "kneser(9)",
     "249b219a2bd535dbad68989380306aea92c255d8a59562cbee647e845e3c2705"),
    (lambda: kneser(10), "kneser(10)",
     "97d767439a4e95234ef457de5e83d925338270ed4dd9e5c9aeb743553a1cbb42"),
    (lambda: kneser(11), "kneser(11)",
     "ed0d59390eba36319474480116e6028358624bf824b82894a91cfa143ee2df79"),
    (lambda: kneser(12), "kneser(12)",
     "b5a0f33ecc5af6a5ee029e8855a12d804ffda3622f903892fdf325dc00df393a"),
    (lambda: kneser(13), "kneser(13)",
     "ccaef3a8b8d2ec21711ae42ae78b8ddd46dd84862f1a441730099ec51dc419e1"),
    (lambda: shift_graph(2), "shift(2)",
     "90d2508ad0a2278784d0de6ad7166f075ad2a071ae79208a83971a657a2db592"),
    (lambda: shift_graph(3), "shift(3)",
     "69acb5d3ad11f56bb448e5309db2541f21ca9ac41776f8c78b06698c7d469ff0"),
    (lambda: shift_graph(4), "shift(4)",
     "1a417fb795037c5e4595c22a0b5f19ab9270dc7f7046a932ecff7f731822af8c"),
    (lambda: shift_graph(5), "shift(5)",
     "3632fd2469bdec318ff49189d958f1c017489d13eb6f70a613597ae3669d267b"),
    (lambda: shift_graph(6), "shift(6)",
     "40a47134a0b4259edfaf9f8f26a4af0a8e9defaaaa8227fa9865d1d7fcc48b45"),
    (lambda: shift_graph(7), "shift(7)",
     "13dba067de3db5c8c44e4c005a8219b6279be65061a5aaf1c2cbb2bb29be0323"),
    (lambda: shift_graph(8), "shift(8)",
     "db27b89e80b7b9c839c9780c52118dadbac560653a5dd95e75ff9f32b82a5ca3"),
    (lambda: shift_graph(9), "shift(9)",
     "acfee32db5d8d764b84308d33db89fbb06b553972a74094884b5380569915aa9"),
    (lambda: shift_graph(10), "shift(10)",
     "5acd3d2123a0edbf72e166b85003c09a12f92fdeb0a246a585420178e4ffa985"),
    (lambda: shift_graph(11), "shift(11)",
     "acc97d4cdf1dd2bcf1d4890f5cf2ee0b5f7b39a2763fa2286de24b12103933e5"),
    (lambda: shift_graph(12), "shift(12)",
     "d789b5168663ad4bdfef9e215480957e64b9852a280c75d14610b274da0b7031"),
    (lambda: shift_graph(13), "shift(13)",
     "ad6d2278417ebcd42f13b9b3c0522f05832b6a9db8272e340a1e513c20392191"),
    (lambda: shift_graph(14), "shift(14)",
     "9645c2419075e442a5f9e5b90179db20376ea5723c0c4e1c7a6bae66f1476358"),
    (lambda: shift_graph(15), "shift(15)",
     "a1169ffd98f0f2e24df6fba687918bed907e02c1724c4ed387f4452fd7f2be7b"),
    (lambda: shift_graph(16), "shift(16)",
     "a401b59670717189b9c59f8a3eaf15eb3bdb13afdfb6f4069e250fef9cb02b62"),
    (lambda: shift_graph(31), "shift(31)",
     "b87be6ba534ddfff1f2767c3bc7f917aac69021f75ad4c24a02b6208e7898e4d"),
    (lambda: shift_graph(64), "shift(64)",
     "af2b9dad4025119b72b41d6ee6dd2c9ed9e2adfa36dc2b85d01830ea907f6d29"),
    (lambda: _kneser_power(1, 2), "power(kneser(1),2)",
     "c64ab31f6af3289dd934d2f71c7e3dbaa4ce057d6122f318d4ea72e46e06938c"),
    (lambda: _kneser_power(1, 5), "power(kneser(1),5)",
     "6203076d6e642e50385af89b05f6b5c48460daff78b781b5b13633a98fbd3cc4"),
    (lambda: _kneser_power(1, 12), "power(kneser(1),12)",
     "9b95804f1b96c53f356efd608e805bc4564a662bfd4653664e6c0d1dab1aaf9d"),
    (lambda: _kneser_power(2, 2), "power(kneser(2),2)",
     "676b6ed14d982a1a92ed7c680db4076c6c9847a551e1b79c0170f8262c955270"),
    (lambda: _kneser_power(2, 3), "power(kneser(2),3)",
     "8f73f964b9316e754fbc05475a547ca144593932f533c97862730e93eaccd08e"),
    (lambda: _kneser_power(2, 4), "power(kneser(2),4)",
     "149f74277a5910d246772bf60d81a42682b3e0748a2dab73d5a8cc30b4dd56fb"),
    (lambda: _kneser_power(2, 5), "power(kneser(2),5)",
     "ac1c38c70a427d72e0dcd4b9668fa8d7c8e8ac6c6351306efdac3177d924cacf"),
    (lambda: _kneser_power(2, 6), "power(kneser(2),6)",
     "3d353f1618c0cbdf0c293191f305888bfedf73f6b364fdfb39501383f8278bd8"),
    (lambda: _kneser_power(2, 7), "power(kneser(2),7)",
     "e7efef3a43fa4794f011adc5a8854aba491c1c0a25e3c91f74d90b2eb5d99eab"),
    (lambda: _kneser_power(3, 2), "power(kneser(3),2)",
     "a560ce3b35b17712b5a44a47e18af50b86cf508615ffd1a2283c206c6881b154"),
    (lambda: _kneser_power(3, 3), "power(kneser(3),3)",
     "68b5cd9a2b9068f28f4cdfa4d027946c6d101237f7dc56e6be02775bd50e4480"),
    (lambda: _kneser_power(3, 4), "power(kneser(3),4)",
     "894b51ef517ac408b6d2466f92fbca3b9f459ac2ef55d4582944f8c1afa2092b"),
    (lambda: _kneser_power(4, 2), "power(kneser(4),2)",
     "6d57b18f0cad21c6139abffe7b474024878d8815ef613fa2aaa6bf2fe5b6f561"),
    (lambda: _kneser_power(4, 3), "power(kneser(4),3)",
     "74bad7950bb9dee8da3a1195817bd52427b7fd9dfb20a2316f305860e51a2e41"),
    (lambda: _kneser_power(5, 2), "power(kneser(5),2)",
     "d82efdde9735be4153e5aa44665331f08c6818ee6ed242b69f3e9556e96510aa"),
    (lambda: _kneser_power(6, 2), "power(kneser(6),2)",
     "2615feba394c1519b8a3128e5c1328622b9f4b13de6d8c1682d875d50329fc52"),
    (lambda: hamming_product(kneser(3), shift_graph(3)), "product(kneser(3),shift(3))",
     "dd182d174239a441f7db60121bfebe73002c32dde6acef01116dab08f0ff3d39"),
    (lambda: hamming_product(shift_graph(4), kneser(2)), "product(shift(4),kneser(2))",
     "6a349bfaa34e05db154eac0f0444e1948d416fc282ca0d5b0fc8175b172f3ad7"),
    (lambda: hamming_product(kneser(4), kneser(3)), "product(kneser(4),kneser(3))",
     "6b1c679e268d675806a88c1457a0e63346b9c143b85ccbdc22667940c2890eec"),
    (lambda: hamming_product(kneser(1), kneser(1)), "product(kneser(1),kneser(1))",
     "c64ab31f6af3289dd934d2f71c7e3dbaa4ce057d6122f318d4ea72e46e06938c"),
    (lambda: hamming_product(edgeless_graph(0), kneser(3)), "product(edgeless(0),kneser(3))",
     "7fb1e6fd9f8ad998d621a79f43ed0b627ad6477db68e51a19d6e90d139534d34"),
    (lambda: hamming_product(kneser(3), edgeless_graph(0)), "product(kneser(3),edgeless(0))",
     "7fb1e6fd9f8ad998d621a79f43ed0b627ad6477db68e51a19d6e90d139534d34"),
    (lambda: hamming_product(edgeless_graph(1), kneser(2)), "product(edgeless(1),kneser(2))",
     "f866eefa0bbc16cbe714a7dec4fd40ae59569d486488b5479234c7c3ba99bb57"),
    (lambda: hamming_product(complete_graph(3), kneser(2)), "product(complete(3),kneser(2))",
     "50f965c33c200369770250bdab2d0bf7f98aeb3fb0324f7a722570ab800f09ae"),
    (lambda: hamming_product(edgeless_graph(3), complete_graph(4)), "product(edgeless(3),complete(4))",
     "34a935f7ef9af5a24aac13a751fc98f91ea8632ceef7ab2a7d566f51d88a54ff"),
    (lambda: hamming_product(random_graph(10, 0.5, 1), kneser(2)), "product(gnp(10,0.5,1),kneser(2))",
     "1130affff46c7832970f36c02d6962dafa0618bbd38905d08f71b73335056e3c"),
    (lambda: hamming_product(kneser(2), random_graph(9, 0.3, 4)), "product(kneser(2),gnp(9,0.3,4))",
     "31c8c1310e8c27331d6f51d9b754ab2a3b5afb92bcf33b223bbb43524ed0c781"),
    (lambda: hamming_power(edgeless_graph(1), 5), "power(edgeless(1),5)",
     "7150abfcd0fb17c1097a8e475bd7af0973093f14224c51eed0726f680c1b9033"),
    (lambda: hamming_power(complete_graph(1), 1), "complete(1)",
     "7150abfcd0fb17c1097a8e475bd7af0973093f14224c51eed0726f680c1b9033"),
    (lambda: hamming_power(edgeless_graph(0), 3), "power(edgeless(0),3)",
     "7fb1e6fd9f8ad998d621a79f43ed0b627ad6477db68e51a19d6e90d139534d34"),
]


@pytest.mark.parametrize(
    "build,label,digest", CONSTRUCTOR_DIGESTS, ids=[r[1] for r in CONSTRUCTOR_DIGESTS]
)
def test_constructor_bytes_pinned(build, label, digest):
    g = build()
    assert g.label == label
    assert hashlib.sha256(graph_to_bytes(g)).hexdigest() == digest
    # the bytes fold self-loops into the diagonal, which adj must leave clear
    assert not any(row >> v & 1 for v, row in enumerate(g.adj))


# --- MIS --------------------------------------------------------------------


def test_mis_matches_brute_force_on_small_graphs():
    rng = random.Random(5)
    graphs = [kneser(2), kneser(3), shift_graph(3), complete_graph(5), edgeless_graph(6)]
    graphs += [random_graph(n, p, rng.randrange(1000)) for n in (8, 10, 12) for p in (0.2, 0.5, 0.8)]
    graphs.append(hamming_product(kneser(2), kneser(2)))
    graphs.append(random_graph(18, 0.4, 21))
    for g in graphs:
        res = max_independent_set(g)
        assert res.size == brute_force_alpha(g), g.label


def test_mis_certificate_verified_against_adjacency():
    g = random_graph(20, 0.3, 9)
    res = max_independent_set(g)
    assert res.set_bits.bit_count() == res.size
    for v in res.vertices():
        assert not g.self_loop[v]
        assert g.adj[v] & res.set_bits == 0


def test_mis_excludes_self_loops():
    g = kneser(3)
    res = max_independent_set(g)
    assert not (res.set_bits & 1)  # the all-zero vertex never participates


def test_mis_size_in_subset_consistent():
    g = shift_graph(3)
    rng = random.Random(1)
    for _ in range(30):
        w = rng.getrandbits(g.vcount)
        sub_adj = tuple(g.adj[v] & w if w >> v & 1 else 0 for v in range(g.vcount))
        sub = Graph(g.vcount, sub_adj, tuple(
            g.self_loop[v] if w >> v & 1 else True for v in range(g.vcount)
        ), "sub")
        assert mis_size_in_subset(g, w) == brute_force_alpha(sub)


def test_inclusion_maximal_independent_sets():
    # brute-force oracle on small graphs
    for g in (kneser(2), shift_graph(3), complete_graph(4), random_graph(9, 0.4, 6)):
        expected = []
        for mask in range(1 << g.vcount):
            ok = True
            m = mask
            while m and ok:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if g.self_loop[v] or g.adj[v] & mask:
                    ok = False
            if not ok:
                continue
            extendable = any(
                not g.self_loop[u]
                and not (mask >> u & 1)
                and g.adj[u] & mask == 0
                for u in range(g.vcount)
            )
            if not extendable:
                expected.append(mask)
        assert inclusion_maximal_independent_sets(g) == sorted(expected), g.label


def test_maximal_vs_maximum_counts_shift4():
    # every maximum set is maximal but not conversely; at m=4 the maximum
    # family has 16 members while inclusion-maximal sets are strictly more
    g = shift_graph(4)
    maximal = inclusion_maximal_independent_sets(g)
    maximum = maximum_independent_sets(g)
    assert set(maximum) <= set(maximal)
    assert len(maximal) > len(maximum) == 16


def test_maximum_independent_sets_enumeration():
    g = complete_graph(4)
    assert maximum_independent_sets(g) == [0b0001, 0b0010, 0b0100, 0b1000]
    sets4 = maximum_independent_sets(shift_graph(4))
    assert len(sets4) == 16  # 6 equipartition products plus 10 involution sets
    assert all(s.bit_count() == 4 for s in sets4)
    sets6 = maximum_independent_sets(shift_graph(6))
    assert len(sets6) == 20
    assert all(s.bit_count() == 9 for s in sets6)


@pytest.mark.parametrize("which", ["maximum"])
def test_enumerations_refuse_more_sets_than_the_cap(which, monkeypatch):
    # shift(4) has 16 maximum independent sets
    monkeypatch.setattr(graphs_module, "MAX_LISTED_SETS", 16)
    assert len(maximum_independent_sets(shift_graph(4))) == 16
    monkeypatch.setattr(graphs_module, "MAX_LISTED_SETS", 15)
    with pytest.raises(UnsupportedSizeError, match=f"more than 15 {which} independent sets"):
        maximum_independent_sets(shift_graph(4))


# (graph, size, nodes_explored, sha256 of hex(set_bits)), recorded before the
# search nodes were made cheaper: the search tree and the set it returns must
# not change
PINNED_SEARCH_TREES = [
    ("shift:4", 4, 17, "b7aa1738d7635612ba85eb341f5d55f01755baa6453d849768f636e99f66fab7"),
    ("shift:5", 6, 89, "7791c19866d9f588a104c8851cb80ea6ccb888576bc0e5aaa200e85a20d3c235"),
    ("shift:6", 9, 323, "b934860341c8eaf3b9ecb126f707e365f145b4bc6c68448851625c81eb244ff0"),
    ("shift:7", 12, 923, "31cf485e2612b101955aa5fea9e7759e7742c0afed79520c67b833c1cb7bc526"),
    ("shift:8", 16, 2925, "a959173846360daa0efe46921b628148dc5f85652ab9cccb96cb80424bd6490a"),
    ("shift:9", 20, 8975, "edd31a3c2202c325f76b60142da07d3333a6edaddf6f0b6c78891aaeedd9b261"),
    ("shift:10", 25, 29827, "ba66f89f1d53b44f20440d8f61b3904dbbc7a7da447e06ce8345282a885692c9"),
    ("kneser:3", 4, 1, "749461858b2297be8c1ba77a2427dbb669a7d9811014b0bf1f16ffe8cae2c709"),
    ("kneser:4", 8, 1, "d936946fe69c0823024c4060ce440a38a24677e092ee9ac9510dc82d90af3d41"),
    ("kneser:5", 16, 1, "727f65570cf4893d2e8412a160f9c9b8e3d184017aff37b36d72672a44744097"),
    ("kneser:2^2", 5, 1, "1979a96c2acb51778c07da9c54c9426d5970972de45d24be3415bf03aa7283c4"),
    ("kneser:2^3", 14, 1, "37c5a0c6ac0850f609fee72507e9825dc739a9b742d004be3bd5cac1d0366065"),
    ("kneser:2^4", 41, 1, "9667e7925652a34c4582f1a8ac3e974e7e5b43191f58c6ef8d77266064c073e7"),
    ("kneser:2^5", 122, 1, "5046f4e5a9eb2a56850e1e430c5aa76966c6d0e6e2e7f18c0c19502d45ae8a57"),
    ("kneser:2^6", 365, 1, "6ffc7b700e44a36140f3444f365b68c5e569a8dbfa1727fd14c1787f25e51e67"),
    ("kneser:3^2", 22, 55, "0af8f479d25f08fd9fe0a0bd6aaa562d420c60c324ac398f8961b0efa885004f"),
    ("kneser:4xkneser:3", 44, 393, "7e59d8b9843b93dccb4d994ed2b95c6b038e2714265ae0294aadcd4644146b10"),
    ("gnp:80:0.1:0", 27, 1215, "d526c8d4146dc7eea58363f0b1a9a49ad6f06685254c4a14b3bc32fcfc164d27"),
    ("gnp:80:0.1:1", 28, 809, "4c8506eef2da1788591b2065fa5a65470c34ba44acfec9d9bea0bae3ce3709c2"),
    ("gnp:80:0.1:2", 29, 1649, "dc0474089eddc7513a44b05dbaff50bbcebfa22cccaf34dcdf35571795299241"),
    ("gnp:80:0.1:3", 28, 727, "e0e5f006f1121e896a97e681b8440559ee911b7c1e593e73ab741d304a3110ab"),
    ("gnp:80:0.1:4", 27, 1273, "6429be7c3d1159ac494f5e94e0d9ccc6ef6f80e5f649bdd451323750dc0d79db"),
    # dense: the peeled core has maximum degree 142, over MAX_LANE_DEGREE
    ("gnp:150:0.9:2", 4, 289, "76629c2cf8108a3b6c34fd0a2af66bd9c6e235be78ab99d01a2b0d59ea2d4b75"),
]


def _pinned_graph(spec: str) -> Graph:
    kind, _, arg = spec.partition(":")
    if kind == "shift":
        return shift_graph(int(arg))
    if kind == "gnp":
        n, p, seed = arg.split(":")
        return random_graph(int(n), float(p), int(seed))
    if arg == "4xkneser:3":
        return hamming_product(kneser(4), kneser(3))
    base, _, t = arg.partition("^")
    return hamming_power(kneser(int(base)), int(t or 1))


@pytest.mark.parametrize(
    "spec,size,nodes,digest", PINNED_SEARCH_TREES, ids=[r[0] for r in PINNED_SEARCH_TREES]
)
def test_mis_search_tree_pinned(spec, size, nodes, digest):
    res = max_independent_set(_pinned_graph(spec))
    assert (res.size, res.nodes_explored) == (size, nodes)
    assert hashlib.sha256(hex(res.set_bits).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "spec,search",
    [
        pytest.param("shift:6", "mis", id="shift:6"),
        pytest.param("gnp:150:0.9:2", "mis", id="gnp:150:0.9:2"),
        pytest.param("shift:6", "size", id="size-shift:6"),
        pytest.param("gnp:150:0.9:2", "size", id="size-gnp:150:0.9:2"),
        pytest.param("kneser:3^2", "size", id="size-kneser:3^2"),
    ],
)
def test_mis_search_runs_one_clique_cover_per_node(spec, search, monkeypatch):
    # the root is the search's first node: no node, the root included, is
    # peeled and checked twice, and each node's one prune is the clique
    # cover, leaves included (shift(6) has lanes, gnp(150, 0.9, 2) none)
    counts = {"_cover_rest": 0, "_mis_size_node": 0}

    def counted(name):
        real = getattr(graphs_module, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(graphs_module, name, wrapper)

    counted("_cover_rest")
    g = _pinned_graph(spec)
    if search == "mis":
        nodes = max_independent_set(g).nodes_explored
    else:
        # the draws of PINNED_SIZE_SEARCH_TREES
        counted("_mis_size_node")
        for i in range(50):
            mis_size_in_subset(g, stream_rng(5, i).getrandbits(g.vcount))
        nodes = counts["_mis_size_node"]
    assert nodes > 1
    assert counts["_cover_rest"] == nodes


def _hub(d: int) -> Graph:
    """Vertex 0 meets every other; 1..5 form a 5-cycle, 6..d triangles (the last may be short).

    Nothing peels, so the core is the whole graph and its top degree is d, at
    vertex 0. The 5-cycle leaves the clique cover one over alpha: the root branches.
    """
    adj = [0] * (d + 1)
    blocks = [range(1, 6)] + [range(s, min(s + 3, d + 1)) for s in range(6, d + 1, 3)]
    for block in blocks:
        for u in block:
            for v in block:
                if u != v and (len(block) < 5 or abs(u - v) in (1, 4)):
                    adj[u] |= 1 << v
    for v in range(1, d + 1):
        adj[0] |= 1 << v
        adj[v] |= 1
    return Graph(d + 1, tuple(adj), (False,) * (d + 1), f"hub({d})")


@pytest.mark.parametrize(
    "d,lanes,search",
    [
        pytest.param(127, True, "mis", id="127-True"),
        pytest.param(128, False, "mis", id="128-False"),
        pytest.param(127, True, "size", id="size-127-True"),
        pytest.param(128, False, "size", id="size-128-False"),
    ],
)
def test_mis_search_at_the_lane_width_boundary(d, lanes, search, monkeypatch):
    # a lane holds 0x80 + degree in one byte: 127 still fits, 128 sends every node to _peel
    g = _hub(d)
    core = _peel(g.adj, g.eligible)[0]
    assert core == g.eligible and max(g.degree(v) for v in range(g.vcount)) == d
    built = []
    real = graphs_module._byte_lanes
    monkeypatch.setattr(graphs_module, "_byte_lanes", lambda m: built.append(m) or real(m))
    want = reference_mis_search(g.adj, g.eligible)
    if search == "mis":
        got = _mis_search(g, g.eligible)
        assert got == want and got[2] > 1
    else:
        assert mis_size_in_subset(g, g.eligible) == want[0]
        # the root branched, so it fetched the graph's table: None over the width
        assert "lane_drop" in vars(g) and (g.lane_drop is not None) == lanes
    assert bool(built) == lanes


@pytest.mark.parametrize("search", ["mis", "size"])
def test_self_looped_hub_stays_on_lanes(search, monkeypatch):
    # the hub's 130 neighbours would overflow its lane, but a self-looped hub
    # is in no pool: every eligible degree fits, so the nodes peel on lanes
    hub = _hub(130)
    g = Graph(hub.vcount, hub.adj, (True,) + hub.self_loop[1:], "looped-hub(130)")
    peels = []
    real = graphs_module._lane_peel
    monkeypatch.setattr(graphs_module, "_lane_peel", lambda *a: peels.append(a) or real(*a))
    want = reference_mis_search(g.adj, g.eligible)
    if search == "mis":
        got = _mis_search(g, g.eligible)
        assert got == want and got[2] > 1
    else:
        assert mis_size_in_subset(g, g.eligible) == want[0]
    # the root branched, so it fetched the graph's table
    assert "lane_drop" in vars(g) and g.lane_drop is not None
    assert peels


@pytest.mark.parametrize("spec", ["kneser:2^6", "kneser:4"])
def test_mis_search_that_closes_at_the_root_builds_no_lanes(spec, monkeypatch):
    def refuse(m):
        raise AssertionError("lanes built for a root that closes")

    monkeypatch.setattr(graphs_module, "_byte_lanes", refuse)
    g = _pinned_graph(spec)
    res = max_independent_set(g)
    assert res.nodes_explored == 1
    # the size-only root closes too, so the graph's lane table is never built
    assert mis_size_in_subset(g, g.eligible) == res.size
    assert "lane_drop" not in vars(g)


def test_lane_table_belongs_to_its_graph():
    # Graphs built and dropped in turn reuse one another's ids, and all carry
    # one label here: a table cached by id or by label would be another
    # graph's. An edge added to a graph must not inherit its table either.
    branched = 0
    for seed in range(200):
        g = random_graph(30, 0.3, seed)
        g = Graph(g.vcount, g.adj, g.self_loop, "g")
        assert mis_size_in_subset(g, g.eligible) == _mis_search(g, g.eligible)[0]
        branched += vars(g).get("lane_drop") is not None
    assert branched > 100
    g = random_graph(16, 0.3, 0)
    alpha = mis_size_in_subset(g, g.eligible)
    assert alpha == brute_force_alpha(g) and g.lane_drop is not None
    h = next(
        h
        for u, v in combinations(range(g.vcount), 2)
        if not g.has_edge(u, v)
        for h in [g.with_edge(u, v)]
        if reference_mis_search(h.adj, h.eligible)[0] < alpha
    )
    assert "lane_drop" not in vars(h)
    assert mis_size_in_subset(h, h.eligible) == brute_force_alpha(h) < alpha
    assert h.lane_drop is not None and h.lane_drop != g.lane_drop


# (sum of sizes, nodes of the size-only search) over the subsets
# stream_rng(5, i).getrandbits(vcount), i < 50, as alpha** Monte Carlo draws them
PINNED_SIZE_SEARCH_TREES = [
    ("shift:4", 167, 84),
    ("shift:6", 350, 280),
    ("shift:8", 579, 810),
    ("shift:10", 894, 2235),
    ("kneser:3^2", 739, 59),
    ("kneser:4xkneser:3", 1463, 139),
    ("kneser:4^2", 2993, 790),
    ("gnp:80:0.1:1", 948, 379),
    # dense: degrees up to 142, over MAX_LANE_DEGREE, so every node runs _peel
    ("gnp:150:0.9:2", 183, 4915),
]


@pytest.mark.parametrize(
    "spec,total,nodes", PINNED_SIZE_SEARCH_TREES, ids=[r[0] for r in PINNED_SIZE_SEARCH_TREES]
)
def test_mis_size_tree_pinned(spec, total, nodes, monkeypatch):
    # the sizes alone cannot see a weaker prune or a redundant child pool
    calls = 0
    real = graphs_module._mis_size_node

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(graphs_module, "_mis_size_node", counted)
    g = _pinned_graph(spec)
    got = sum(mis_size_in_subset(g, stream_rng(5, i).getrandbits(g.vcount)) for i in range(50))
    assert (got, calls) == (total, nodes)


def _all_looped(m: int) -> Graph:
    return Graph(m, (0,) * m, (True,) * m, f"looped({m})")


SUBSET_DP_CLOSED_FORMS = {
    "complete": (complete_graph, lambda w: int(w != 0)),
    "edgeless": (edgeless_graph, int.bit_count),
    "all-looped": (_all_looped, lambda w: 0),
}


@pytest.mark.parametrize("vcount", [0, 1, 9, 20, 21])
@pytest.mark.parametrize("kind", list(SUBSET_DP_CLOSED_FORMS))
def test_subset_dp_closed_forms(kind, vcount):
    build, alpha_of = SUBSET_DP_CLOSED_FORMS[kind]
    g = build(vcount)
    if vcount > 20:
        with pytest.raises(UnsupportedSizeError, match="vcount <= 20"):
            mis_size_all_subsets(g)
        return
    table = mis_size_all_subsets(g)
    assert type(table) is bytes and len(table) == 1 << vcount
    assert table == bytes(alpha_of(w) for w in range(1 << vcount))


def test_mis_budget():
    with pytest.raises(UnsupportedSizeError):
        max_independent_set(Graph(5000, (0,) * 5000, (False,) * 5000, "big"))


@pytest.mark.parametrize(
    "search,expected",
    [
        (lambda: len(maximum_independent_sets(complete_graph(1500))), 1500),
        (lambda: mis_size_in_subset(random_graph(1100, 0.98, 1), (1 << 1100) - 1), 4),
    ],
    ids=["maximum-sets", "size-in-subset"],
)
def test_searches_recurse_past_the_default_limit_on_cores_over_1000_vertices(
    search, expected
):
    # each search recurses once per branch level, about once per vertex here;
    # these raised RecursionError under the default limit of 1000
    limit = sys.getrecursionlimit()
    assert search() == expected
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize(
    "search,m",
    [
        (max_independent_set, 6),
        (maximum_independent_sets, 6),
        (min_graph_blocker, 4),
        (lambda g: mis_size_in_subset(g, g.eligible), 6),
    ],
    ids=["max-set", "maximum-sets", "graph-blocker", "size-in-subset"],
)
def test_searches_leave_no_reference_cycle(search, m):
    # a search that calls itself through its enclosing scope keeps its state
    # (the lane table, the listed sets) alive until a gc pass
    g = shift_graph(m)
    gc.collect()
    gc.disable()
    try:
        search(g)
        freed = gc.collect()
    finally:
        gc.enable()
    assert freed == 0


# --- io ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "g", [kneser(3), shift_graph(4), random_graph(9, 0.4, 3), edgeless_graph(5)]
)
def test_text_round_trip(g):
    back = graph_from_text(graph_to_text(g))
    assert back.vcount == g.vcount
    assert back.adj == g.adj
    assert back.self_loop == g.self_loop


@pytest.mark.parametrize(
    "g", [kneser(3), shift_graph(4), random_graph(9, 0.4, 3), complete_graph(1)]
)
def test_binary_round_trip(g):
    data = graph_to_bytes(g)
    assert data[:4] == b"HLG1"
    back = graph_from_bytes(data)
    assert back.vcount == g.vcount
    assert back.adj == g.adj
    assert back.self_loop == g.self_loop


def test_binary_format_golden_bytes():
    # kneser(1): two vertices, edge 0-1, self-loop on 0. Row bytes are
    # little-endian with the diagonal bit marking the loop.
    data = graph_to_bytes(kneser(1))
    assert data == b"HLG1" + (2).to_bytes(4, "little") + bytes([0b11, 0b01])


# --- malformed input ---------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["2\n0: 5\n", "2\n5: 0\n", "2\n0: -1\n", "2\n-1: 0\n"],
    ids=["right-5", "left-5", "right-neg", "left-neg"],
)
def test_text_vertex_out_of_range_rejected(text):
    # either side of the colon; -1 used to index the last vertex silently
    with pytest.raises(ValueError, match="outside"):
        graph_from_text(text)


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_empty_graph_text_rejected(text):
    with pytest.raises(ValueError, match="graph text is empty"):
        graph_from_text(text)


@pytest.mark.parametrize(
    "make",
    [
        lambda: graph_from_text("3\n0: " + "1 " * 100_000 + "7\n"),
        lambda: graph_from_text("3\n0: " + "x" * 100_000 + "\n"),
        lambda: graph_from_text("3\n\n" + "9" * 100_000 + ": 1\n"),
        lambda: graph_from_text("9" * 4300 + "\n"),
        lambda: graph_from_text("9" * 5000 + "\n"),
        lambda: kneser(10**4299),
        lambda: kneser(-(10**4299)),
        lambda: shift_graph(10**4299),
        lambda: complete_graph(10**4299),
        lambda: edgeless_graph(-(10**4299)),
        lambda: hamming_power(kneser(2), 10**4299),
    ],
    ids=[
        "bad-id-in-long-line", "long-token", "long-head", "4300-digit-count",
        "5000-digit-count", "kneser", "kneser-neg", "shift", "complete", "edgeless-neg",
        "power",
    ],
)
def test_error_messages_do_not_echo_a_long_input(make):
    # a bad id in a 100,000-id line used to echo the line: 200,041 characters
    with pytest.raises((ValueError, UnsupportedSizeError)) as info:
        make()
    assert len(str(info.value)) <= 120


def test_text_import_error_names_the_line_and_the_id():
    with pytest.raises(ValueError) as info:
        graph_from_text("3\n\n0: 1\n1: 2 7\n")
    assert str(info.value) == "vertex 7 outside [0, 3) in line 4"
    with pytest.raises(ValueError, match="vertex 'x' in line 2 is not an integer"):
        graph_from_text("3\n0: x\n")


@pytest.mark.parametrize("vcount", [MAX_PRODUCT_VERTICES + 1, (1 << 20) + 1, 1 << 70, -1])
def test_text_vertex_count_out_of_range_rejected(vcount):
    # checked before the adjacency list of vcount entries is allocated;
    # 2^20 + 1 was the first count refused under the old 2^20 cap
    with pytest.raises(ValueError, match="vertex count"):
        graph_from_text(f"{vcount}\n")


def test_binary_length_mismatch_rejected():
    data = graph_to_bytes(kneser(3))
    with pytest.raises(ValueError, match="bytes"):
        graph_from_bytes(b"HLG1" + (1000).to_bytes(4, "little") + b"\x01")
    for bad in (data[:-1], data + b"\x00"):
        with pytest.raises(ValueError, match="bytes"):
            graph_from_bytes(bad)


def test_binary_bit_beyond_vcount_rejected():
    # 3 vertices in one byte per row; bit 5 of row 0 names no vertex
    data = b"HLG1" + (3).to_bytes(4, "little") + bytes([0b100000, 0, 0])
    with pytest.raises(ValueError, match="at or above"):
        graph_from_bytes(data)


def test_binary_asymmetric_rows_rejected():
    # row 0 has the edge 0-1, row 1 does not
    data = b"HLG1" + (2).to_bytes(4, "little") + bytes([0b10, 0b00])
    with pytest.raises(ValueError, match="symmetric"):
        graph_from_bytes(data)


def test_negative_vertex_counts_rejected():
    for build in (edgeless_graph, complete_graph, lambda m: random_graph(m, 0.5, 1)):
        with pytest.raises(ValueError, match="vertex count"):
            build(-1)
        assert build(0).vcount == 0  # empty graphs stay constructible


@pytest.mark.parametrize("build", [complete_graph, edgeless_graph])
def test_generated_graphs_refuse_more_than_4096_vertices(build):
    # refused before any row is built; complete(20000) used to take 72 MB first
    with pytest.raises(UnsupportedSizeError, match="n <= 4096, got 4097"):
        build(4097)


def test_empty_graph_has_no_independence_ratio():
    with pytest.raises(ValueError, match="no vertices"):
        max_independent_set(edgeless_graph(0))
