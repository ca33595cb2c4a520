"""Ground-set, family-enumeration and winning-set behaviour."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatlab.errors import MalformedStrategyError, UnsupportedSizeError
from hatlab.game import (
    FAMILY_KINDS,
    Strategy,
    constant_strategy,
    enumerate_family,
    random_strategy,
    success_probability,
    tuple_from_index,
    tuple_index,
    winning_set,
)
from hatlab.graphs import kneser, maximum_independent_sets
from hatlab.solver import exact_p

from mis_reference import inclusion_maximal_independent_sets
from winning_set_reference import reference_winning_bits, visible_index

# --- independent oracles ----------------------------------------------------


def brute_maximal_intersecting(n: int) -> list[int]:
    """Every maximal intersecting family, by scanning all subsets of the
    nonzero points. Slow and obviously correct."""
    size = 1 << n
    points = list(range(1, size))
    out = []
    for bits in range(1 << len(points)):
        members = [points[i] for i in range(len(points)) if bits >> i & 1]
        if not all(a & b for a in members for b in members):
            continue
        mask = 0
        for p in members:
            mask |= 1 << p
        maximal = True
        for q in points:
            if mask >> q & 1:
                continue
            if all(q & p for p in members):
                maximal = False
                break
        if maximal:
            out.append(mask)
    return sorted(out)


def brute_balanced_monotone(n: int) -> list[int]:
    size = 1 << n
    out = []
    for mask in range(1 << size):
        if mask.bit_count() != size // 2:
            continue
        if all(
            mask >> (p | (1 << b)) & 1
            for p in range(size)
            if mask >> p & 1
            for b in range(n)
        ):
            out.append(mask)
    return sorted(out)


def inductive_winning_bits(strategy: Strategy, family) -> int:
    """Winning set built by the recursive two-block definition."""
    n, t = strategy.n, strategy.t
    if t == 1:
        return family.sets[strategy.tables[0][0]]
    size = 1 << n
    f_last = strategy.tables[t - 1]
    bits = 0
    for xt in range(size):
        entries = 1 << (n * (t - 2))
        sub_tables = tuple(
            tuple(strategy.tables[i][(vis << n) | xt] for vis in range(entries))
            for i in range(t - 1)
        )
        sub = Strategy(n=n, t=t - 1, tables=sub_tables)
        wsub = inductive_winning_bits(sub, family)
        m = wsub
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            if family.sets[f_last[y]] >> xt & 1:
                bits |= 1 << ((y << n) | xt)
    return bits


# --- tuple indexing ---------------------------------------------------------


def test_tuple_index_round_trip():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 4)
        t = rng.randint(1, 4)
        points = tuple(rng.randrange(1 << n) for _ in range(t))
        assert tuple_from_index(tuple_index(points, n), n, t) == points


def test_tuple_index_is_big_endian():
    # player 1 occupies the most significant block
    assert tuple_index((1, 0), 2) == 4
    assert tuple_index((0, 1), 2) == 1
    assert visible_index((3, 1, 2), 1, 2) == (3 << 2) | 2


# --- family enumeration -----------------------------------------------------


def test_dictator_family_n2():
    fam = enumerate_family("dictator", 2)
    # {10, 11} and {01, 11} in coordinate notation: points {1,3} and {2,3}
    assert fam.sets == (0b1010, 0b1100)
    assert fam.r == 2
    assert all(fam.member_measure(i) == Fraction(1, 2) for i in range(fam.r))


def test_intersecting_family_n3_members():
    fam = enumerate_family("intersecting", 3)
    dict3 = enumerate_family("dictator", 3)
    majority = 0
    for p in (0b011, 0b101, 0b110, 0b111):
        majority |= 1 << p
    assert len(fam.sets) == 4
    assert set(dict3.sets) | {majority} == set(fam.sets)


def test_indices_containing_is_the_membership_set():
    for kind, n in (("dictator", 2), ("intersecting", 3)):
        fam = enumerate_family(kind, n)
        for v in range(1 << n):
            assert fam.indices_containing(v) == tuple(
                i for i, w in enumerate(fam.sets) if w >> v & 1
            )
    # 11 lies in both dictators, 00 in none
    dict2 = enumerate_family("dictator", 2)
    assert dict2.indices_containing(0b11) == (0, 1)
    assert dict2.indices_containing(0) == ()


def test_monotone_family_n2_is_the_dictators():
    assert enumerate_family("monotone", 2).sets == enumerate_family("dictator", 2).sets


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_intersecting_enumeration_matches_brute_force(n):
    assert list(enumerate_family("intersecting", n).sets) == brute_maximal_intersecting(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_maximal_intersecting_families_are_the_maximum_independent_sets_of_kneser(n):
    # enumerate_family stops at n = 4; past it the identity it rests on is
    # checked against the reference list of maximal sets of every size
    maximal = inclusion_maximal_independent_sets(kneser(n))
    half = [s for s in maximal if s.bit_count() == 1 << (n - 1)]
    assert half == maximal
    assert maximum_independent_sets(kneser(n)) == half
    assert len(half) == (1, 2, 4, 12, 81)[n - 1]  # OEIS A007363


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monotone_enumeration_matches_brute_force(n):
    assert list(enumerate_family("monotone", n).sets) == brute_balanced_monotone(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_family_containment_chain(n):
    dicts = set(enumerate_family("dictator", n).sets)
    inters = set(enumerate_family("intersecting", n).sets)
    monos = set(enumerate_family("monotone", n).sets)
    assert dicts <= inters <= monos


@pytest.mark.parametrize("kind,n", [("intersecting", 5), ("monotone", 5), ("dictator", 17)])
def test_enumeration_budget_errors(kind, n):
    with pytest.raises(UnsupportedSizeError):
        enumerate_family(kind, n)


def test_unknown_family_kind_is_a_usage_error():
    with pytest.raises(ValueError, match="unknown family kind 'balanced'"):
        enumerate_family("balanced", 2)


@pytest.mark.parametrize("kind", ["dictator", "intersecting", "monotone"])
@pytest.mark.parametrize("n", [0, -1])
def test_non_positive_n_is_a_usage_error(kind, n):
    with pytest.raises(ValueError, match="n >= 1"):
        enumerate_family(kind, n)


def test_families_sorted_and_balanced():
    for kind in ("dictator", "intersecting", "monotone"):
        for n in (1, 2, 3, 4):
            fam = enumerate_family(kind, n)
            assert list(fam.sets) == sorted(fam.sets)
            assert all(w.bit_count() == 1 << (n - 1) for w in fam.sets)


# sha256 of the members in hex, comma-joined, recorded from the per-point
# constructors: every closed-form member must give the same sets
FAMILY_DIGESTS = [
    ("dictator", 1, "5f6f0f3ebb5eb25c82b351471f52cb59cee3faac6ea9819faf63fee6d92b8326"),
    ("dictator", 2, "e72fcb48a1b493aa0b3d34815bc00a287dde516b91f1d6a7ff3535673c858997"),
    ("dictator", 3, "c575df77fa347e4b89d006819e55c1148fe92e040b8ec8d64af221e8743a7fee"),
    ("dictator", 4, "ffe8e5b60acc842a52abc9a147cba629007fbc345cbb9aa84e13beeed1875c99"),
    ("dictator", 5, "a9050096e5ef5207ffe40a0766d604081f562652d10099fdf819a32e9833ba71"),
    ("dictator", 6, "ca9b73bc122a4d48dc1e6b1e293110622ece04177e4b3e223cc7349733577e58"),
    ("dictator", 7, "a4ad1ad57c00b4f96f676c1b23246250da80a0b0dd4b7bbbab837231e9fdd3a7"),
    ("dictator", 8, "504699f042591b210d01e9381b21b5d02ab52a8a802847af094dd3b4a1732623"),
    ("dictator", 9, "05c74f9d0a1f1aa9de89ad8cf864b4aa9aeb211d161494102014af91c9f44d5d"),
    ("dictator", 10, "c271a0b1f45f14c7b02151acbb8dafcdfc373b3ccd54ab8cb0dc1b35b93575f7"),
    ("dictator", 11, "bc06d78d893519c229cbf641f4e01fd25a806ff9274949e547164a914fc49fc4"),
    ("dictator", 12, "ed355ec2b55753f139e4056e0f3cb6ec0f19c39720f8fd85da241a5a719c57f9"),
    ("dictator", 13, "b328baf67a0590a5eb4a2d3aa206f77974d08934aeabbdc390777ccbbac4c1e6"),
    ("dictator", 14, "b7bbcbb4b0b7dbcc6257c9201c38936d94aae3fc6ea2a2e445feffefbd59852d"),
    ("dictator", 15, "ff1bd8e1c74a8ec7f3ae42b7c366692ac327d08b7fd0c7ddd5278018c27286cc"),
    ("dictator", 16, "445e2c41c793ab712e9532f1f0900ebd6693e6e20180b2c55b3a37bac890256b"),
    ("monotone", 1, "5f6f0f3ebb5eb25c82b351471f52cb59cee3faac6ea9819faf63fee6d92b8326"),
    ("monotone", 2, "e72fcb48a1b493aa0b3d34815bc00a287dde516b91f1d6a7ff3535673c858997"),
    ("monotone", 3, "ed1ce704bcbdc114d89b9e2243b5d9eb54421e75121eae32cf8e1ec8217a0a74"),
    ("monotone", 4, "c016710bd7f49e5bb4b76b2f91371c651265e24ca35c98ab3deb675f3c4f0d51"),
]


@pytest.mark.parametrize(
    "kind,n,digest", FAMILY_DIGESTS, ids=[f"{k}-{n}" for k, n, _ in FAMILY_DIGESTS]
)
def test_family_members_pinned(kind, n, digest):
    sets = enumerate_family(kind, n).sets
    assert hashlib.sha256(",".join(map(hex, sets)).encode()).hexdigest() == digest


# --- winning sets -----------------------------------------------------------


def test_single_player_winning_set_is_the_chosen_member():
    fam = enumerate_family("dictator", 2)
    s = constant_strategy(fam, 1, 0)
    w = winning_set(s, fam)
    assert w == fam.sets[0]
    assert success_probability(s, fam) == Fraction(1, 2)


def test_two_player_n1_forced():
    fam = enumerate_family("dictator", 1)
    s = constant_strategy(fam, 2, 0)
    w = winning_set(s, fam)
    assert w == 1 << tuple_index((1, 1), 1)
    assert success_probability(s, fam) == Fraction(1, 4)


def test_two_player_constant_product():
    # f1 always names set 0 (first coordinate), f2 always set 1 (second)
    fam = enumerate_family("dictator", 2)
    s = Strategy(n=2, t=2, tables=((0, 0, 0, 0), (1, 1, 1, 1)))
    w = winning_set(s, fam)
    expected = {tuple_index((x, y), 2) for x in (1, 3) for y in (2, 3)}
    assert {i for i in range(16) if w >> i & 1} == expected
    assert success_probability(s, fam) == Fraction(1, 4)


def test_success_probability_matches_direct_recount():
    fam = enumerate_family("dictator", 2)
    rng = random.Random(7)
    for _ in range(20):
        s = random_strategy(fam, 2, rng)
        wins = 0
        for x in range(4):
            for y in range(4):
                if (fam.sets[s.tables[0][y]] >> x & 1) and (
                    fam.sets[s.tables[1][x]] >> y & 1
                ):
                    wins += 1
        assert success_probability(s, fam) == Fraction(wins, 16)


@pytest.mark.parametrize("t,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_winning_set_formulations_agree(t, n):
    fam = enumerate_family("dictator", n)
    rng = random.Random(100 * t + n)
    for _ in range(12):
        s = random_strategy(fam, t, rng)
        assert winning_set(s, fam) == inductive_winning_bits(s, fam)


@st.composite
def oracle_strategies(draw, kind):
    """A random or constant strategy of `kind` with t = 1..5 and n*t <= 14."""
    t, n = draw(st.sampled_from([
        (t, n) for t in range(1, 6) for n in range(1, 15)
        if n * t <= 14 and (kind == "dictator" or n <= 4)
    ]))
    family = enumerate_family(kind, n)
    if draw(st.booleans()):
        return constant_strategy(family, t, draw(st.integers(0, family.r - 1))), family
    return random_strategy(family, t, random.Random(draw(st.integers(0, 2**32)))), family


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_winning_set_matches_per_tuple_reference(kind, data):
    strategy, family = data.draw(oracle_strategies(kind))
    assert winning_set(strategy, family) == reference_winning_bits(strategy, family)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("t,n", [(1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (4, 1)])
def test_winning_set_of_exact_witness_matches_per_tuple_reference(t, n, kind):
    family = enumerate_family(kind, n)
    witness = exact_p(t, n, kind, allow_slow=True).witness
    assert winning_set(witness, family) == reference_winning_bits(witness, family)


def permute_players(strategy: Strategy, perm: tuple[int, ...]) -> Strategy:
    """Strategy for the game with players reordered by `perm`.

    perm[i] is the old index of the player now sitting at position i. The
    winning set of the result is the coordinate-permuted winning set of the
    input (same measure).
    """
    n, t = strategy.n, strategy.t
    if sorted(perm) != list(range(t)):
        raise ValueError(f"{perm} is not a permutation of 0..{t - 1}")
    entries = 1 << (n * (t - 1))
    tables = []
    for i in range(t):
        old_i = perm[i]
        table = [0] * entries
        for vis in range(entries):
            seen = tuple_from_index(vis, n, t - 1)
            # seen[j] is what new-player i sees at new position j (skipping i)
            new_points = list(seen[:i]) + [0] + list(seen[i:])
            old_points = [new_points[perm.index(j)] for j in range(t)]
            old_vis = visible_index(tuple(old_points), old_i, n)
            table[vis] = strategy.tables[old_i][old_vis]
        tables.append(tuple(table))
    return Strategy(n=n, t=t, tables=tuple(tables))


@pytest.mark.parametrize("t,n", [(2, 2), (3, 2)])
def test_player_permutation_permutes_winning_set(t, n):
    fam = enumerate_family("dictator", n)
    rng = random.Random(13)
    for perm in permutations(range(t)):
        s = random_strategy(fam, t, rng)
        w = winning_set(s, fam)
        wp = winning_set(permute_players(s, perm), fam)
        assert wp.bit_count() == w.bit_count()
        for idx in range(1 << (n * t)):
            x = tuple_from_index(idx, n, t)
            y = tuple(x[perm[i]] for i in range(t))
            assert (w >> idx & 1) == (wp >> tuple_index(y, n) & 1)


def test_permute_players_rejects_a_non_permutation():
    s = random_strategy(enumerate_family("dictator", 2), 2, random.Random(0))
    with pytest.raises(ValueError, match=r"\(0, 0\) is not a permutation"):
        permute_players(s, (0, 0))


def test_malformed_strategy_rejected():
    fam = enumerate_family("dictator", 2)
    with pytest.raises(MalformedStrategyError):
        winning_set(Strategy(n=2, t=2, tables=((0,), (0, 0, 0, 0))), fam)
    with pytest.raises(MalformedStrategyError):
        winning_set(Strategy(n=2, t=2, tables=((5, 0, 0, 0), (0, 0, 0, 0))), fam)
    # 0.0 passed the range check, then failed as a tuple index with a TypeError
    with pytest.raises(MalformedStrategyError, match="entry 0.0 outside"):
        success_probability(Strategy(n=2, t=2, tables=((0, 1, 0, 1), (0, 0.0, 0, 0))), fam)
    with pytest.raises(MalformedStrategyError, match="does not match family n=2"):
        winning_set(Strategy(n=3, t=2, tables=((0,) * 8, (0,) * 8)), fam)
    with pytest.raises(MalformedStrategyError, match="expected 2 tables, got 1"):
        winning_set(Strategy(n=2, t=2, tables=((0, 0, 0, 0),)), fam)
