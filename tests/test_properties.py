"""Property tests: codec round trips, engines against independent references,
and malformed input that is either rejected with ValueError or decoded to a
valid object, never anything else."""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from hatlab import graphs as graphs_module
from hatlab.blockers import (
    Blocker,
    BlockerFamily,
    base_blockers,
    construct_blockers,
    family_from_json,
    family_to_json,
    verify_blocker,
)
from hatlab.game import enumerate_family, tuple_from_index, tuple_index, winning_set
from hatlab.graphs import (
    MAX_LANE_DEGREE,
    Graph,
    _cover_rest,
    _min_degree_greedy,
    _mis_search,
    _peel,
    graph_from_bytes,
    graph_from_text,
    graph_to_bytes,
    graph_to_text,
    hamming_power,
    hamming_product,
    kneser,
    max_independent_set,
    mis_size_all_subsets,
    mis_size_in_subset,
    random_graph,
    shift_graph,
)

from blocker_reference import brute_force_is_blocker
from mis_search_reference import reference_mis_search

# derandomized and bounded, so tier-1 stays deterministic and fast
bounded = settings(derandomize=True, max_examples=60, deadline=None, database=None)


# --- strategies ---------------------------------------------------------------


@st.composite
def graphs(draw, min_vertices: int = 0, max_vertices: int = 20) -> Graph:
    """random_graph with an arbitrary set of self-loops on top."""
    g = random_graph(draw(st.integers(min_vertices, max_vertices)),
                     draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
                     draw(st.integers(0, 1000)))
    loops = tuple(draw(st.lists(st.booleans(), min_size=g.vcount, max_size=g.vcount)))
    return Graph(g.vcount, g.adj, loops, g.label)


@st.composite
def product_families(draw) -> BlockerFamily:
    n = draw(st.integers(4, 10))
    ys = draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=24))
    tuples = tuple(tuple(ys[i : i + 6]) for i in range(0, len(ys) - 5, 6))
    beta = Fraction(6 * len(tuples), 1 << n)
    return BlockerFamily(t=2, n=n, k=12, beta=beta, seed=draw(st.integers(0, 99)),
                         tuples=tuples)


@st.composite
def explicit_families(draw) -> BlockerFamily:
    if draw(st.booleans()):
        return base_blockers(draw(st.integers(1, 6)))
    family = construct_blockers(draw(st.integers(4, 6)), draw(st.integers(0, 99)), 0.5)
    family.materialize()
    return family


families = st.one_of(explicit_families(), product_families())

# replacement values for one field of a family document
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 1 << 70), st.floats(allow_nan=True),
    st.text(max_size=4), st.sampled_from(["1/0", "x/2", "3", "1/6"]),
    st.lists(st.integers(-2, 300), max_size=3), st.dictionaries(st.text(max_size=2), st.integers()),
)


def assert_valid_graph(g: Graph) -> None:
    assert len(g.adj) == len(g.self_loop) == g.vcount
    for u, row in enumerate(g.adj):
        assert row >> g.vcount == 0 and not row >> u & 1
        assert all(g.adj[v] >> u & 1 for v in range(g.vcount) if row >> v & 1)


def assert_valid_family(family: BlockerFamily) -> None:
    """Every point in range, every blocker of size k, and a lossless re-encoding."""
    if family.blockers is not None:
        for b in family.blockers:
            assert b.k == family.k
            assert all(len(p) == family.t for p in b.points)
            assert all(0 <= x < 1 << family.n for p in b.points for x in p)
    else:
        assert family.t == 2
        for tp in family.tuples:
            assert 2 * len(set(tp)) == family.k
            assert all(0 <= y < 1 << family.n for y in tp)
    text = family_to_json(family)
    assert family_to_json(family_from_json(text)) == text


# --- round trips --------------------------------------------------------------


@bounded
@given(st.integers(1, 8), st.integers(1, 4), st.data())
def test_tuple_codec_round_trip(n, t, data):
    points = tuple(data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=t, max_size=t)))
    idx = tuple_index(points, n)
    assert 0 <= idx < 1 << (n * t)
    assert tuple_from_index(idx, n, t) == points


@bounded
@given(graphs())
def test_graph_text_round_trip(g):
    back = graph_from_text(graph_to_text(g))
    assert (back.vcount, back.adj, back.self_loop) == (g.vcount, g.adj, g.self_loop)


@bounded
@given(graphs())
def test_graph_bytes_round_trip(g):
    back = graph_from_bytes(graph_to_bytes(g))
    assert (back.vcount, back.adj, back.self_loop) == (g.vcount, g.adj, g.self_loop)


@bounded
@given(families)
def test_family_json_round_trip(family):
    back = family_from_json(family_to_json(family))
    assert (back.t, back.n, back.k, back.beta, back.seed) == (
        family.t, family.n, family.k, family.beta, family.seed)
    if family.blockers is not None:
        assert [b.points for b in back.blockers] == [b.points for b in family.blockers]
    else:
        assert back.tuples == family.tuples
    assert_valid_family(back)


# --- MIS against the subset DP -----------------------------------------------


@bounded
@given(graphs(min_vertices=1, max_vertices=14), st.data())
def test_mis_matches_subset_dp(g, data):
    table = mis_size_all_subsets(g)
    assert max_independent_set(g).size == table[-1]
    w = data.draw(st.integers(0, (1 << g.vcount) - 1))
    assert mis_size_in_subset(g, w) == table[w]


@settings(bounded, max_examples=6)
@given(graphs(min_vertices=17, max_vertices=20), st.data())
def test_subset_dp_at_the_lane_boundary(g, data):
    # 2^17..2^20 byte lanes, the top of the subset DP's budget
    table = mis_size_all_subsets(g)
    assert len(table) == 1 << g.vcount
    for w in data.draw(st.lists(st.integers(0, (1 << g.vcount) - 1), min_size=4, max_size=4)):
        assert table[w] == mis_size_in_subset(g, w)
    assert table[-1] == mis_size_in_subset(g, (1 << g.vcount) - 1)


@bounded
@given(graphs(min_vertices=0, max_vertices=12), st.integers(0, 13), st.data())
def test_cover_rest_is_a_sound_clique_cover_bound(g, k, data):
    # checked against the subset DP, which shares no code with the cover
    pool = data.draw(st.integers(0, (1 << g.vcount) - 1)) & g.eligible
    alpha = mis_size_all_subsets(g)[pool]
    assert _cover_rest(g.adj, pool, 0) == _cover_rest(g.adj, pool, -1) == pool
    rest = _cover_rest(g.adj, pool, k)
    assert rest & ~pool == 0
    if not rest:
        assert alpha <= k
    # one more clique takes at least one vertex of a non-empty rest
    more = _cover_rest(g.adj, pool, k + 1)
    assert more & ~rest == 0
    assert more != rest or not rest


@bounded
@given(graphs(), st.integers(0, 1 << 32))
def test_min_degree_greedy_gives_a_maximal_independent_set_of_the_pool(g, seed):
    pool = random.Random(seed).getrandbits(g.vcount) & g.eligible
    size, chosen = _min_degree_greedy(g.adj, pool)
    assert chosen & ~pool == 0 and chosen.bit_count() == size
    assert all(g.adj[v] & chosen == 0 for v in range(g.vcount) if chosen >> v & 1)
    # maximal: every other vertex of the pool has a neighbour in the set
    assert all(g.adj[v] & chosen for v in range(g.vcount) if (pool & ~chosen) >> v & 1)


# graphs whose random subsets make the size-only search branch both ways
BRANCHING_GRAPHS = [
    *(shift_graph(m) for m in range(5, 9)),
    hamming_power(kneser(3), 2),
    hamming_product(kneser(4), kneser(3)),
]


def test_mis_size_matches_mis_search_and_branches_both_ways():
    # The subset-DP test above mostly closes at the root; these subsets reach
    # both branch rules. A binary node's two children differ in size by one,
    # a multiway node's one or two children all include a vertex.
    rules = Counter()
    siblings = [[]]
    real = graphs_module._mis_size_node

    def counting(adj, p, size, best):
        siblings[-1].append(size)
        siblings.append([])
        try:
            return real(adj, p, size, best)
        finally:
            kids = siblings.pop()
            if kids:
                rules["binary" if len(set(kids)) == 2 else "multiway"] += 1

    @settings(bounded, max_examples=100)
    @given(st.sampled_from(BRANCHING_GRAPHS) | graphs(min_vertices=1, max_vertices=40),
           st.integers(0, 1 << 32))
    def check(g, seed):
        rng = random.Random(seed)
        with mock.patch.object(graphs_module, "_mis_size_node", counting):
            for _ in range(10):
                pool = rng.getrandbits(g.vcount) & g.eligible
                assert mis_size_in_subset(g, pool) == _mis_search(g.adj, pool)[0]

    check()
    assert rules["binary"] > 0 and rules["multiway"] > 0, rules


def test_mis_search_walks_the_bitmask_reference_tree():
    # The lane search must return the bitmask search's set and node count,
    # not just its size. Dense graphs on full pools put the peeled core over
    # the lane limit, sparser ones or thinner pools under it.
    sides = Counter()

    sparse = st.tuples(st.integers(1, 100),
                       st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95]),
                       st.sampled_from([0.5, 0.9, 1.0]))
    dense = st.tuples(st.integers(130, 150), st.sampled_from([0.9, 0.95]),
                      st.sampled_from([0.9, 1.0]))

    @settings(bounded, max_examples=100)
    @given(sparse | dense, st.integers(0, 1 << 32))
    def check(shape, seed):
        n, p, keep = shape
        rng = random.Random(seed)
        g = random_graph(n, p, seed)
        loops = tuple(rng.random() < 0.1 for _ in range(n))
        g = Graph(n, g.adj, loops, g.label)
        pool = sum(1 << v for v in range(n) if rng.random() < keep) & g.eligible
        got = _mis_search(g.adj, pool)
        assert got == reference_mis_search(g.adj, pool)
        core = _peel(g.adj, pool)[0]
        if got[2] > 1:
            over = any((g.adj[v] & core).bit_count() > MAX_LANE_DEGREE for v in range(n))
            sides["bitmask" if over else "lanes"] += 1

    check()
    assert sides["bitmask"] > 0 and sides["lanes"] > 0, sides


# --- certification oracle against the brute force ---------------------------


@settings(bounded, max_examples=150)
@given(st.integers(1, 3), st.data())
def test_t2_oracle_matches_brute_force(n, data):
    # uniform coordinates alone rarely give blockers or late dodging tables
    # at n=3; coordinates with at most one white hat do
    full = (1 << n) - 1
    coord = st.integers(0, full) | st.integers(0, n).map(lambda i: full & ~(1 << i))
    points = tuple(data.draw(st.lists(st.tuples(coord, coord), unique=True, max_size=5)))
    winning = enumerate_family("dictator", n)
    res = verify_blocker(Blocker(2, n, points), winning)
    assert res.is_blocker == brute_force_is_blocker(list(points), n)
    assert (res.counterexample is None) == res.is_blocker
    if res.counterexample is not None:
        w = winning_set(res.counterexample.to_strategy(), winning)
        assert not any(w >> (x << n | y) & 1 for x, y in points)


# --- malformed input ----------------------------------------------------------


@bounded
@given(graphs(), st.data())
def test_damaged_graph_bytes_rejected_or_valid(g, data):
    raw = bytearray(graph_to_bytes(g))
    if data.draw(st.booleans()):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    else:
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
    try:
        back = graph_from_bytes(bytes(raw))
    except ValueError:
        return
    assert_valid_graph(back)


@bounded
@given(graphs(), st.data())
def test_damaged_graph_text_rejected_or_valid(g, data):
    text = graph_to_text(g)
    pos = data.draw(st.integers(0, len(text) - 1))
    text = text[:pos] + data.draw(st.sampled_from("0123456789-: \nx")) + text[pos + 1 :]
    try:
        back = graph_from_text(text)
    except ValueError:
        return
    assert_valid_graph(back)


@bounded
@given(families, st.data())
def test_mutated_family_json_rejected_or_valid(family, data):
    doc = json.loads(family_to_json(family))
    # one field of the document, of a blocker, of the product or of one tuple
    containers = [doc, *doc.get("blockers", [])]
    if "product" in doc:
        containers += [doc["product"], doc["product"]["tuples"], *doc["product"]["tuples"]]
    target = data.draw(st.sampled_from([c for c in containers if c]))
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    key = data.draw(st.sampled_from(keys))
    if data.draw(st.booleans()):
        del target[key]
    else:
        target[key] = data.draw(junk)
    try:
        back = family_from_json(json.dumps(doc))
    except ValueError:
        return
    assert_valid_family(back)


@bounded
@given(families, st.data())
def test_damaged_family_text_rejected_or_valid(family, data):
    text = family_to_json(family)
    pos = data.draw(st.integers(0, len(text) - 1))
    if data.draw(st.booleans()):
        text = text[:pos]
    else:
        text = text[:pos] + data.draw(st.sampled_from('09-",[]{}:x')) + text[pos + 1 :]
    try:
        back = family_from_json(text)
    except ValueError:
        return
    assert_valid_family(back)
