"""Blocker construction, certification oracle, bounds, graph blockers."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from hatlab.blockers import (
    Blocker,
    BlockerFamily,
    base_blockers,
    certify_family,
    check_pairwise_disjoint,
    construct_blockers,
    decrement_bound,
    family_from_json,
    family_to_json,
    k_sequence,
    PackedTuples,
    min_graph_blocker,
    union_measure,
    verify_blocker,
)
from hatlab.errors import UnsupportedSizeError
from hatlab.game import MAX_DICTATOR_N, enumerate_family, winning_set
from hatlab.graphs import complete_graph, graph_from_text, shift_graph
from hatlab.solver import exact_p

from blocker_reference import brute_force_is_blocker
from mis_reference import reference_maximum_independent_sets


# --- k sequence and decrement bound ----------------------------------------


def test_k_sequence_values():
    assert k_sequence(1) == 2
    assert k_sequence(2) == 12
    assert k_sequence(3) == 32_449_872


def test_k_sequence_budget():
    with pytest.raises(UnsupportedSizeError):
        k_sequence(5)
    with pytest.raises(UnsupportedSizeError):
        k_sequence(0)


def test_decrement_bound_values():
    assert decrement_bound(2, 1) == Fraction(1, 128)
    assert decrement_bound(12, Fraction(1, 6)) == Fraction(1, 6 * 12 * 2**26)


@pytest.mark.parametrize("k", [2, 12])
def test_decrement_bound_corollary_identity(k):
    # with beta = 2/k the bound collapses to 2^(-2k-1) / k^2
    assert decrement_bound(k, Fraction(2, k)) == Fraction(1, k * k * (1 << (2 * k + 1)))


def test_decrement_bound_rejects_bad_args():
    with pytest.raises(ValueError):
        decrement_bound(0, 1)
    with pytest.raises(ValueError):
        decrement_bound(2, 0)
    with pytest.raises(ValueError):
        decrement_bound(2, 2)


def test_finite_n_decrement_check():
    bound = Fraction(1, 2) - decrement_bound(2, 1)
    for n in (1, 2, 3):
        assert exact_p(2, n, "dictator").value <= bound


# --- base blockers ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_base_blockers_certify(n):
    fam = base_blockers(n)
    assert fam.k == 2
    assert fam.beta == 1
    assert fam.blocker_count == 1 << (n - 1)
    winning = enumerate_family("dictator", n)
    for b in fam.blockers:
        assert verify_blocker(b, winning).is_blocker


def test_base_pairs_are_complements():
    fam = base_blockers(2)
    assert [b.points for b in fam.blockers] == [((0,), (3,)), ((1,), (2,))]


def test_every_dictator_contains_one_point_per_pair():
    n = 3
    fam = base_blockers(n)
    winning = enumerate_family("dictator", n)
    for w in winning.sets:
        for b in fam.blockers:
            hits = sum(1 for (p,) in b.points if w >> p & 1)
            assert hits == 1


def test_singleton_fails_with_counterexample():
    n = 4
    winning = enumerate_family("dictator", n)
    blocker = Blocker(t=1, n=n, points=((0b0101,),))
    res = verify_blocker(blocker, winning)
    assert not res.is_blocker
    cx = res.counterexample
    assert cx is not None
    # the named coordinate is white on the blocker's only point
    assert not (0b0101 >> cx.f1[0] & 1)
    # and the counterexample extends to a strategy whose winning set avoids it
    w = winning_set(cx.to_strategy(), winning)
    assert not (w >> 0b0101 & 1)


def test_blocker_rejects_points_out_of_range():
    # 31 at n=4 made the t=1 oracle die with StopIteration
    with pytest.raises(ValueError, match="2\\^4"):
        Blocker(1, 4, ((31,),))
    # 999 at n=4 was silently verified as the point (7, 15)
    with pytest.raises(ValueError, match="2\\^4"):
        Blocker(2, 4, ((999, 15), (15, 999)))
    for bad in (((-1, 3),), ((3,),), ((1, 2, 3),)):
        with pytest.raises(ValueError):
            Blocker(2, 4, bad)
    Blocker(2, 4, ((0, 15), (15, 0)))  # both ends of the range are points
    with pytest.raises(ValueError, match="distinct"):
        Blocker(2, 4, ((1, 2), (1, 2)))


@pytest.mark.parametrize(
    "blocker,kind,n,error,what",
    [
        (Blocker(1, 4, ((15,),)), "intersecting", 4, UnsupportedSizeError, "dictator family only"),
        (Blocker(1, 4, ((15,),)), "dictator", 3, ValueError, "does not match family n=3"),
        (Blocker(3, 2, ((1, 2, 3),)), "dictator", 2, UnsupportedSizeError, "t in \\(1, 2\\)"),
        # six first coordinates at n=16: 16^6 second-player tables
        (Blocker(2, 16, tuple((x, 1) for x in range(1, 7))), "dictator", 16,
         UnsupportedSizeError, "16777216 second-player tables exceed"),
    ],
    ids=["intersecting", "other-n", "t=3", "table-budget"],
)
def test_verify_blocker_rejects_what_it_cannot_certify(blocker, kind, n, error, what):
    with pytest.raises(error, match=what):
        verify_blocker(blocker, enumerate_family(kind, n))


def test_certification_leaves_arguments_unchanged():
    winning = enumerate_family("dictator", 4)
    blocker = base_blockers(4).blockers[0]
    before = repr(blocker)
    assert verify_blocker(blocker, winning).is_blocker
    assert repr(blocker) == before
    for family in (base_blockers(4), construct_blockers(4, 2, 0.5),
                   construct_blockers(16, 7, 0.8)):
        assert certify_family(family, enumerate_family("dictator", family.n)).certified
        assert family.certified is False


def test_all_ones_singleton_is_a_blocker():
    n = 3
    winning = enumerate_family("dictator", n)
    assert verify_blocker(Blocker(t=1, n=n, points=((0b111,),)), winning).is_blocker


# --- two-player certification ----------------------------------------------


def test_t2_counterexample_extends_to_avoiding_strategy():
    n = 3
    winning = enumerate_family("dictator", n)
    # a small set that is clearly not a blocker
    blocker = Blocker(t=2, n=n, points=((1, 1), (2, 2)))
    res = verify_blocker(blocker, winning)
    assert not res.is_blocker
    strategy = res.counterexample.to_strategy()
    w = winning_set(strategy, winning)
    for x, y in blocker.points:
        assert not (w >> ((x << n) | y) & 1)


def test_t2_oracle_agrees_with_full_enumeration():
    n = 4
    winning = enumerate_family("dictator", n)
    rng = random.Random(11)
    for _ in range(25):
        pts = set()
        while len(pts) < 6:
            pts.add((rng.randrange(1, 16), rng.randrange(1, 16)))
        points = tuple(sorted(pts))
        got = verify_blocker(Blocker(t=2, n=n, points=points), winning).is_blocker
        assert got == brute_force_is_blocker(list(points), n)


def test_certified_blockers_meet_random_strategies():
    n = 8
    winning = enumerate_family("dictator", n)
    family = construct_blockers(n, seed=5, delta=0.5)
    cert = certify_family(family, winning)
    assert cert.certified
    rng = random.Random(0)
    blockers = family.materialize()
    for _ in range(10_000):
        b = blockers[rng.randrange(len(blockers))]
        # only table entries on touched coordinates matter
        f1 = {y: rng.randrange(n) for _, y in b.points}
        f2 = {x: rng.randrange(n) for x, _ in b.points}
        assert any(
            (x >> f1[y] & 1) and (y >> f2[x] & 1) for x, y in b.points
        ), "a certified blocker missed a strategy"


# sha256 of repr([verify_blocker(b, ...) for b in _oracle_probes()]), recorded
# before the oracle was rewritten as a lane test: verdicts, counterexamples
# (lowest legal hat, first dodging table in product order) and tables_scanned
ORACLE_DIGEST = "6d994111461fbd5b0ed63922fca750bbbc477a332a9a7bc9d2b6731609dbc218"


def _oracle_probes() -> list[Blocker]:
    """Seeded t=1 and t=2 probes at n=1..8, then the n=14 class probes."""
    rng = random.Random(2024)
    probes = [Blocker(1, n, ()) for n in (1, 4)] + [Blocker(2, n, ()) for n in (1, 3)]
    for n in range(1, 9):
        probes += base_blockers(n).blockers
        for _ in range(4):
            k = rng.randint(1, 4)
            xs = rng.sample(range(1 << n), min(k, 1 << n))
            probes.append(Blocker(1, n, tuple((x,) for x in xs)))
        for _ in range(12):
            xpool = rng.sample(range(1 << n), rng.randint(1, min(4, 1 << n)))
            pts = {(rng.choice(xpool), rng.randrange(1 << n)) for _ in range(rng.randint(1, 8))}
            probes.append(Blocker(2, n, tuple(sorted(pts))))
        # mostly-black coordinates make dodging tables rarer and later
        def dense() -> int:
            return sum(1 << i for i in range(n) if rng.random() < 0.8)

        for _ in range(12):
            xpool = [dense() for _ in range(rng.randint(1, 4))]
            pts = {(rng.choice(xpool), dense()) for _ in range(rng.randint(1, 8))}
            probes.append(Blocker(2, n, tuple(sorted(pts))))
    probes += construct_blockers(4, 2, 0.5).materialize()
    probes += construct_blockers(8, 7, 0.5).materialize()[::37]
    for b in probes[-40:]:  # certified blockers minus one point
        drop = rng.randrange(b.k)
        probes.append(Blocker(2, b.n, b.points[:drop] + b.points[drop + 1 :]))
    full = (1 << 14) - 1
    for ytuple in construct_blockers(14, 3, 0.15).tuples:
        for pair in ((1, full ^ 1), (0, full)):
            probes.append(Blocker(2, 14, tuple((a, y) for a in pair for y in ytuple)))
    return probes


def test_oracle_pinned():
    probes = _oracle_probes()
    results = [verify_blocker(b, enumerate_family("dictator", b.n)) for b in probes]
    assert (len(results), sum(r.is_blocker for r in results)) == (1319, 1129)
    assert sum(r.tables_scanned for r in results) == 158582
    assert hashlib.sha256(repr(results).encode()).hexdigest() == ORACLE_DIGEST


# --- construction -----------------------------------------------------------


def test_construct_n8_fully_certified_blocker_by_blocker():
    family = construct_blockers(8, seed=1, delta=0.5)
    assert family.k == 12 == k_sequence(2)
    assert not family.stalled
    winning = enumerate_family("dictator", 8)
    blockers = family.materialize()
    assert all(b.k == family.k for b in blockers)
    assert all(verify_blocker(b, winning).is_blocker for b in blockers)
    assert check_pairwise_disjoint(family)
    assert union_measure(family) == family.beta


def test_construct_degenerate_n4_covers_weight_two_layer():
    family = construct_blockers(4, seed=2, delta=0.5)
    ys = {y for tp in family.tuples for y in tp}
    assert ys == {p for p in range(16) if bin(p).count("1") == 2}
    winning = enumerate_family("dictator", 4)
    for b in family.materialize():
        assert verify_blocker(b, winning).is_blocker
        assert brute_force_is_blocker(list(b.points), 4)


def test_product_family_disjointness_is_exact():
    # 8 complement pairs times one 6-tuple of distinct points: 8 disjoint blockers
    family = BlockerFamily(
        t=2, n=4, k=12, beta=Fraction(96, 256), tuples=[(3, 5, 6, 9, 10, 12)]
    )
    assert family.blocker_count == 8
    assert check_pairwise_disjoint(family)
    assert not check_pairwise_disjoint(
        BlockerFamily(t=2, n=4, k=12, beta=Fraction(96, 256),
                      tuples=[(3, 5, 6, 9, 10, 12), (3, 1, 2, 4, 8, 15)])
    )


@pytest.mark.parametrize("n", [4, 5, 6])
def test_product_formulas_match_the_explicit_expansion(n):
    a, b, c, d, e, f = random.Random(n).sample(range(1 << n), 6)
    cases = [
        ([(a, b, c), (d, e, f)], True),
        ([(a, b, c), (c, d, e)], False),  # c in two tuples
        ([(a, b, a), (d, e, f)], False),  # a twice inside one tuple
    ]
    for tuples, disjoint in cases:
        family = BlockerFamily(t=2, n=n, k=6, beta=Fraction(1), tuples=tuples)
        points = [
            (x, y) for pair in family.pair_list() for tp in tuples for x in pair for y in tp
        ]
        assert union_measure(family) == Fraction(len(set(points)), 1 << (2 * n))
        assert check_pairwise_disjoint(family) == (len(set(points)) == len(points)) == disjoint


def test_explicit_family_disjointness_is_exact():
    shared = Blocker(t=2, n=2, points=((0, 3), (3, 0)))
    overlapping = Blocker(t=2, n=2, points=((3, 0), (1, 2)))
    family = BlockerFamily(t=2, n=2, k=2, beta=Fraction(3, 16), blockers=(shared, overlapping))
    assert not check_pairwise_disjoint(family)


def test_certify_family_reports_the_failing_blocker():
    # {1, 6} and {2, 5} are complement pairs at n=3; {2, 4} misses coordinate 1
    family = BlockerFamily(
        t=1, n=3, k=2, beta=Fraction(5, 8),
        blockers=tuple(
            Blocker(t=1, n=3, points=((a,), (b,))) for a, b in ((1, 6), (2, 4), (2, 5))
        ),
    )
    cert = certify_family(family, enumerate_family("dictator", 3))
    assert (cert.certified, cert.failures, cert.oracle_runs) == (False, (1,), 3)


def test_certify_family_reports_the_failing_product_tuple():
    good = construct_blockers(4, 2, 0.5).tuples[0]
    # every point of the second tuple is white at hat 3, so the second player
    # naming hat 3 everywhere dodges each of its products
    family = BlockerFamily(
        t=2, n=4, k=12, beta=Fraction(9, 16), tuples=[good, (1, 2, 3, 4, 5, 6)]
    )
    cert = certify_family(family, enumerate_family("dictator", 4))
    assert not cert.certified
    assert cert.failures == (1,)
    assert cert.blockers_covered == 16


def test_construct_n16_window_and_class_certification():
    family = construct_blockers(16, seed=7, delta=0.15)
    assert family.k == 12
    assert Fraction(85, 100) / 6 <= family.beta <= Fraction(1, 6)
    assert family.blocker_count == (1 << 15) * len(family.tuples)
    assert check_pairwise_disjoint(family)
    assert union_measure(family) == family.beta
    cert = certify_family(family, enumerate_family("dictator", 16))
    assert cert.certified
    assert cert.oracle_runs == 2 * len(family.tuples)
    with pytest.raises(UnsupportedSizeError, match="keep the product form"):
        family.materialize()


def test_product_tuples_cover_every_dictator_pair():
    # the constructive core of certification: whatever two dictators the
    # second player assigns to a complement pair, some kept vector makes
    # both guesses correct at once
    family = construct_blockers(8, seed=1, delta=0.5)
    n = 8
    for ytuple in family.tuples:
        for j1 in range(n):
            for j2 in range(n):
                assert any((y >> j1 & 1) and (y >> j2 & 1) for y in ytuple)


def test_class_certification_matches_direct_oracle_on_samples():
    # one oracle run per (tuple, pair-class) must agree with running the
    # oracle on arbitrary concrete pairs
    family = construct_blockers(16, seed=3, delta=0.8)
    winning = enumerate_family("dictator", 16)
    full = (1 << 16) - 1
    rng = random.Random(4)
    pairs = [(0, full), (1, full ^ 1)]
    pairs += [(x := rng.randrange(1, full), full ^ x) for _ in range(6)]
    for ytuple in family.tuples[:3]:
        results = set()
        for x, xbar in pairs:
            points = tuple((a, y) for a in (x, xbar) for y in ytuple)
            results.add(verify_blocker(Blocker(2, 16, points), winning).is_blocker)
        assert results == {True}


def test_construct_stall_contract():
    family = construct_blockers(16, seed=7, delta=0.15, stall_limit=0)
    assert family.stalled
    assert family.beta < Fraction(1, 6) * (1 - Fraction(0.15))
    # the partial family still certifies
    cert = certify_family(family, enumerate_family("dictator", 16))
    assert cert.certified


@pytest.mark.parametrize("n", [0, -1])
def test_base_blockers_reject_non_positive_n(n):
    with pytest.raises(ValueError, match="n >= 1"):
        base_blockers(n)


@pytest.mark.parametrize("n", [0, -2])
def test_construct_rejects_non_positive_n_as_a_usage_error(n):
    with pytest.raises(ValueError, match="n >= 1"):
        construct_blockers(n, seed=1)


def test_construct_rejects_tiny_n():
    with pytest.raises(UnsupportedSizeError):
        construct_blockers(3, seed=0)


@pytest.mark.parametrize("n", [MAX_DICTATOR_N + 1, 40])
def test_construct_rejects_n_over_the_dictator_limit(n):
    # n=40 used to run out of memory on its 2^40-bit coverage mask
    with pytest.raises(UnsupportedSizeError, match=f"n <= {MAX_DICTATOR_N}"):
        construct_blockers(n, seed=1)


@pytest.mark.parametrize("delta", [float("inf"), float("-inf"), float("nan")])
def test_construct_rejects_non_finite_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        construct_blockers(8, seed=1, delta=delta)


def test_construct_rejects_negative_stall_limit():
    # -5 used to act as 0; seed 1 hits no collision, so it returned a full family
    with pytest.raises(ValueError, match="stall_limit"):
        construct_blockers(8, seed=1, delta=0.15, stall_limit=-5)
    assert not construct_blockers(8, seed=1, delta=0.15, stall_limit=0).stalled


# --- packed tuples ------------------------------------------------------------


@pytest.mark.parametrize(
    "rows",
    [((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)), ((5,), (0,)), ((), (), ()), ()],
    ids=["width-3", "width-1", "width-0", "empty"],
)
def test_packed_tuples_behave_like_tuple_of_tuples(rows):
    packed = PackedTuples(rows)
    assert tuple(packed) == rows
    assert len(list(packed)) == len(packed) == len(rows)
    assert packed == rows and packed == PackedTuples(rows)
    assert repr(packed) == repr(rows)
    for sl in (slice(None), slice(1, None), slice(None, None, -1), slice(0, 3, 2)):
        assert packed[sl] == rows[sl]
    assert [packed[i] for i in range(-len(rows), len(rows))] == [
        rows[i] for i in range(-len(rows), len(rows))
    ]
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError, match="out of range"):
            packed[i]


def test_packed_tuples_reject_rows_of_unequal_length():
    with pytest.raises(ValueError, match="same length"):
        PackedTuples(((1, 2), (3,)))


# --- serialization ----------------------------------------------------------


def test_family_json_round_trip_explicit():
    family = construct_blockers(8, seed=1, delta=0.5)
    family.materialize()
    doc = family_to_json(family)
    back = family_from_json(doc)
    assert back.beta == family.beta
    assert back.k == family.k
    assert [b.points for b in back.blockers] == [b.points for b in family.blockers]


def test_family_json_schema_and_flat_indices():
    import json as json_mod

    family = base_blockers(2)
    doc = json_mod.loads(family_to_json(family))
    assert set(doc) == {"t", "n", "k", "beta", "blockers", "seed", "certified", "stalled"}
    assert doc["beta"] == "1/1"
    # tuple indices flatten big-endian: the pair ((1,), (2,)) stays (1, 2) at t=1
    assert doc["blockers"] == [[0, 3], [1, 2]]
    fam2 = construct_blockers(4, seed=2, delta=0.5)
    fam2.materialize()
    doc2 = json_mod.loads(family_to_json(fam2))
    x, y = fam2.blockers[0].points[0]
    assert doc2["blockers"][0][0] == (x << 4) | y


def test_construction_deterministic_per_seed():
    a = construct_blockers(16, seed=7, delta=0.15)
    b = construct_blockers(16, seed=7, delta=0.15)
    assert a.tuples == b.tuples and a.beta == b.beta
    c = construct_blockers(16, seed=8, delta=0.15)
    assert c.tuples != a.tuples


def test_family_json_round_trip_product():
    family = construct_blockers(16, seed=7, delta=0.8)
    doc = family_to_json(family)
    back = family_from_json(doc)
    assert back.tuples == family.tuples
    assert back.blocker_count == family.blocker_count
    assert back.beta == family.beta


def _family_doc(**changes) -> dict:
    """A valid explicit t=2, n=4 family document with one blocker, then `changes`."""
    doc = json.loads(family_to_json(base_blockers(4)))
    doc.update(t=2, k=2, beta="1/128", blockers=[[0x0F, 0xF0]])
    doc.update(changes)
    return doc


def test_family_json_rejects_beta_that_is_not_the_union_measure():
    # one 2-point n=4 blocker covers 2/256 of B^2, not the claimed half
    family_from_json(json.dumps(_family_doc()))
    with pytest.raises(ValueError, match="union measure 1/128"):
        family_from_json(json.dumps(_family_doc(beta="1/2", certified=True)))


def test_family_json_rejects_a_document_with_blockers_and_product():
    # the product used to be dropped and the blockers decoded alone
    product = {"base": "complement-pairs", "tuples": [[3, 5, 6, 9, 10, 12]]}
    with pytest.raises(ValueError, match="blockers or product, not both"):
        family_from_json(json.dumps(_family_doc(product=product)))


def test_family_json_rejects_a_document_nested_too_deeply_to_decode():
    # the decoder's RecursionError used to escape as a traceback
    nested = "[" * 100_000 + "]" * 100_000
    doc = {"t": 2, "n": 4, "k": 12, "beta": "3/8",
           "product": {"base": "complement-pairs", "tuples": "nested"}}
    for text in (nested, json.dumps(doc).replace('"nested"', nested)):
        with pytest.raises(ValueError, match="nested too deeply"):
            family_from_json(text)


def test_family_json_rejects_point_index_out_of_range():
    family_from_json(json.dumps(_family_doc()))  # the unmodified document decodes
    # 999999 used to be masked into a different point of B^2
    for bad in (999999, 256, -1):
        with pytest.raises(ValueError, match="2\\^8"):
            family_from_json(json.dumps(_family_doc(blockers=[[0x0F, bad]])))


def test_family_json_rejects_blocker_of_wrong_length():
    with pytest.raises(ValueError, match="expected k=2"):
        family_from_json(json.dumps(_family_doc(blockers=[[0x0F, 0xF0, 0x11]])))


def test_family_json_rejects_product_entry_out_of_range():
    doc = json.loads(family_to_json(construct_blockers(16, seed=7, delta=0.8)))
    family_from_json(json.dumps(doc))
    doc["product"]["tuples"][0][0] = 1 << 16
    with pytest.raises(ValueError, match="2\\^16"):
        family_from_json(json.dumps(doc))


BAD_PRODUCT_DOC = {
    "t": 2, "n": 4, "k": 12, "beta": "3/8",
    "product": {"base": "complement-pairs", "tuples": [[1, 1, 2, 3, 4, 5, 6]]},
}


def test_family_json_rejects_product_tuple_with_a_repeated_point():
    # six distinct points, as k=12 asks, but seven entries: every product
    # blocker would hold 14 points
    with pytest.raises(ValueError, match="12/2 distinct points, got \\[1, 1, 2, 3, 4, 5, 6\\]"):
        family_from_json(json.dumps(BAD_PRODUCT_DOC))


def test_family_json_rejects_a_product_base_other_than_complement_pairs():
    # family_from_json decoded "base": "other" as complement pairs
    doc = json.loads(family_to_json(construct_blockers(16, seed=7, delta=0.8)))
    family_from_json(json.dumps(doc))
    doc["product"]["base"] = "other"
    with pytest.raises(ValueError, match="base must be 'complement-pairs', got 'other'"):
        family_from_json(json.dumps(doc))
    del doc["product"]["base"]
    with pytest.raises(ValueError, match="got None"):
        family_from_json(json.dumps(doc))


@pytest.mark.parametrize("t,n", [(3, 4), (2, 17)])
def test_family_json_rejects_unsupported_t_or_n(t, n):
    # decoding a point costs O(n * t); only t <= 2 dictator-sized n are built here
    with pytest.raises(ValueError, match="need t <= 2"):
        family_from_json(json.dumps(_family_doc(t=t, n=n)))


@pytest.mark.parametrize("key", ["t", "n", "k", "beta", "blockers"])
def test_family_json_rejects_missing_key(key):
    doc = _family_doc()
    del doc[key]
    with pytest.raises(ValueError, match="lacks"):
        family_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "doc,what",
    [
        ([_family_doc()], "must be a JSON object"),
        (_family_doc(blockers=5), "blockers must be a list of point-index lists"),
        (_family_doc(blockers=[5]), "a blocker must be a list of integers .*, got 5"),
        (_family_doc(seed="7"), "seed must be an integer or null"),
        (_family_doc(stalled=1), "stalled and certified booleans"),
        (_family_doc(certified="yes"), "stalled and certified booleans"),
    ],
    ids=["not-an-object", "blockers-not-a-list", "blocker-not-a-list", "seed-string",
         "stalled-int", "certified-string"],
)
def test_family_json_rejects_a_malformed_shape(doc, what):
    with pytest.raises(ValueError, match=what):
        family_from_json(json.dumps(doc))


def _product_doc(base="complement-pairs", tuples=([3, 5, 6, 9, 10, 12],)) -> dict:
    return {"t": 2, "n": 4, "k": 12, "beta": "3/8",
            "product": {"base": base, "tuples": list(tuples)}}


# (document, what its error must say): one value thousands of characters long is cut, and
# one that fits in 60 characters appears whole
HUGE_VALUE_DOCS = {
    "blocker-entry": (_family_doc(blockers=[[0] * 100_000 + [256]]),
                      "entry 100000 of 100001 is 256"),
    "product-tuple": (_product_doc(tuples=[list(range(16)) * 4096]),
                      "must hold 12/2 distinct points"),
    "beta": (_family_doc(beta=list(range(100_000))), "beta must be a fraction string"),
    "base": (_product_doc(base="x" * 100_000), "base must be 'complement-pairs'"),
    "t": (_family_doc(t="x" * 100_000), "t, n and k must be positive integers"),
    "t-digits": (_family_doc(t=10**4000), "need t <= 2"),
    "k-digits": (_family_doc(k=10**4000), "a blocker has 2 points, expected k=1000"),
    "product-k-digits": (_product_doc() | {"k": 10**4000}, "must hold 1000"),
    "beta-digits": (_family_doc(beta="1" * 4000 + "/" + "1" * 3999 + "2"),
                    "does not match the union measure 1/128"),
    "n-46-digits": (_family_doc(n=10**45), f"got t=2, n={10**45}$"),
    "base-40-chars": (_product_doc(base="x" * 40), f"got '{'x' * 40}'$"),
}


@pytest.mark.parametrize("name", list(HUGE_VALUE_DOCS))
def test_family_json_errors_do_not_echo_a_huge_value(name):
    # each message used to echo the whole value, up to 688,948 characters, and
    # then cut a 46-digit n or a 40-character base although it would fit
    doc, what = HUGE_VALUE_DOCS[name]
    with pytest.raises(ValueError, match=what) as info:
        family_from_json(json.dumps(doc))
    assert len(str(info.value)) < 300


# --- graph blockers ---------------------------------------------------------


def test_min_graph_blocker_complete_graph():
    size, witness = min_graph_blocker(complete_graph(4))
    assert size == 4
    assert witness == (0, 1, 2, 3)


def test_min_graph_blocker_shift_graphs_computed_values():
    # exhaustive hitting-set search over all maximum independent sets;
    # shift(4) has 16 of them (6 products and 10 involution-type sets).
    # Both witnesses are checked against the reference enumeration, which
    # min_graph_blocker does not use.
    for m, expected in ((4, 5), (6, 4)):
        g = shift_graph(m)
        size, witness = min_graph_blocker(g)
        assert size == expected
        assert len(set(witness)) == size
        chosen = 0
        for v in witness:
            chosen |= 1 << v
        assert all(s & chosen for s in reference_maximum_independent_sets(g))


def test_min_graph_blocker_refuses_a_graph_with_no_eligible_vertex():
    # both vertices are self-looped: alpha = 0 and the one maximum set is empty
    g = graph_from_text("2\n0: 0 1\n1: 1\n")
    with pytest.raises(ValueError, match="no vertex set meets"):
        min_graph_blocker(g)


def test_parse_beta():
    from hatlab.blockers import parse_beta

    assert parse_beta("1/6") == Fraction(1, 6)
    assert parse_beta("3") == 3
    for bad in ("0/0", "1/0", "x/2", None):
        with pytest.raises(ValueError):
            parse_beta(bad)
