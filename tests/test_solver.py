"""Exact engine, local search and their cross-oracles."""

from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatlab.errors import MalformedStrategyError, UnsupportedSizeError
from hatlab.game import enumerate_family, success_probability
from hatlab import solver
from hatlab.graphs import hamming_power, kneser, max_independent_set
from hatlab.solver import (
    _scan_last_player,
    _score_table,
    best_response_value,
    dominance_chain,
    exact_p,
    local_search_p,
)

from local_search_reference import reference_local_search

# Frozen optima, each pinned by an independent oracle in this file or in the
# scratch derivations: 5/16 by full double enumeration, 11/32 and 7/32 by the
# independence number of the matching disjointness-graph power.
P22 = Fraction(5, 16)
P23 = Fraction(11, 32)
P32 = Fraction(7, 32)


def double_enumeration_optimum(n: int, kind: str) -> Fraction:
    """Exhaustive max over both players' tables, straight from the definition."""
    fam = enumerate_family(kind, n)
    size = 1 << n
    best = -1
    for f1 in product(range(fam.r), repeat=size):
        for f2 in product(range(fam.r), repeat=size):
            wins = 0
            for x in range(size):
                wx = fam.sets[f2[x]]
                for y in range(size):
                    if (fam.sets[f1[y]] >> x & 1) and (wx >> y & 1):
                        wins += 1
            if wins > best:
                best = wins
    return Fraction(best, size * size)


# --- forced values ----------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_one_player_is_half(n):
    res = exact_p(1, n, "dictator")
    assert res.value == Fraction(1, 2)
    assert res.work == n


@pytest.mark.parametrize("t", range(1, 7))
def test_single_hat_forces_all_black(t):
    res = exact_p(t, 1, "dictator")
    assert res.value == Fraction(1, 2**t)


@pytest.mark.parametrize("kind", ["dictator", "intersecting", "monotone"])
def test_one_player_all_kinds(kind):
    assert exact_p(1, 3, kind).value == Fraction(1, 2)


# --- best response ----------------------------------------------------------


def test_best_response_single_cell_n1():
    fam = enumerate_family("dictator", 1)
    assert best_response_value((0, 0), fam) == Fraction(1, 4)


def test_best_response_constant_table_matches_definition_loop():
    fam = enumerate_family("dictator", 2)
    # direct loop over x2 and both possible responses
    total = 0
    for x2 in range(4):
        reachable = 0
        for x1 in range(4):
            if fam.sets[0] >> x2 & 1:  # f2(x1) = set 0 for every x1
                reachable |= 1 << x1
        total += max((w & reachable).bit_count() for w in fam.sets)
    assert best_response_value((0, 0, 0, 0), fam) == Fraction(total, 16)


def test_best_response_max_over_tables_equals_exact():
    fam = enumerate_family("dictator", 2)
    best = max(best_response_value(tb, fam) for tb in product(range(fam.r), repeat=4))
    assert best == exact_p(2, 2, "dictator").value


def test_malformed_tables_rejected():
    fam = enumerate_family("dictator", 2)  # r = 2
    # too short, too long, an entry at r, a negative entry
    for table in [(0, 1, 0), (0, 1, 0, 1, 0), (0, 1, 2, 0), (0, -1, 0, 1)]:
        with pytest.raises(MalformedStrategyError):
            best_response_value(table, fam)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["dictator", "intersecting", "monotone"])
def test_best_response_to_the_exact_witness_is_the_exact_value(n, kind):
    res = exact_p(2, n, kind)
    assert best_response_value(res.witness.tables[1], enumerate_family(kind, n)) == res.value


# --- exact engine -----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["dictator", "intersecting", "monotone"])
def test_second_table_engine_matches_double_enumeration(n, kind):
    assert exact_p(2, n, kind).value == double_enumeration_optimum(n, kind)


def test_exact_p22():
    res = exact_p(2, 2, "dictator")
    assert res.value == P22
    assert res.method == "best-response-exact"
    assert res.work == 16  # r^(2^n) second-player tables


def test_exact_p23_within_folklore_bound():
    res = exact_p(2, 3, "dictator")
    assert res.value == P23
    assert Fraction(1, 4) <= res.value <= Fraction(3, 8)
    assert res.work == 6561


@pytest.mark.parametrize(
    "t,n,kind,expected",
    [
        (2, 2, "intersecting", P22),
        (2, 3, "intersecting", P23),
        (2, 3, "monotone", P23),
    ],
)
def test_exact_other_kinds(t, n, kind, expected):
    assert exact_p(t, n, kind).value == expected


def test_exact_p32_gated_and_cross_checked():
    with pytest.raises(UnsupportedSizeError):
        exact_p(3, 2, "dictator")
    res = exact_p(3, 2, "dictator", allow_slow=True)
    assert res.value == P32
    # at n=2 the dictators are exactly the maximal intersecting families, so
    # the optimum equals the independence ratio of the cube of kneser(2)
    mis = max_independent_set(hamming_power(kneser(2), 3))
    assert res.value == mis.alpha_bar


def test_witness_validity():
    cases = [(1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 2)]
    for (t, n), kind in product(cases, ("dictator", "intersecting", "monotone")):
        res = exact_p(t, n, kind, allow_slow=t == 3)
        fam = enumerate_family(kind, n)
        assert success_probability(res.witness, fam) == res.value, (t, n, kind)


def test_monotonicity_in_t():
    # the paper's theorem, p(t+1, n) < p(t, n), for t = 1..top on every kind;
    # exact_p(20, 1) takes seconds, and above these t no exact engine runs
    kinds = ("dictator", "intersecting", "monotone")
    for (n, top), kind in product([(1, 12), (2, 3), (3, 2)], kinds):
        values = [exact_p(t, n, kind, allow_slow=t == 3).value for t in range(1, top + 1)]
        assert all(after < before for before, after in zip(values, values[1:])), (n, kind, values)


def test_one_player_at_the_width_budget():
    assert exact_p(1, 16, "dictator").value == Fraction(1, 2)
    with pytest.raises(UnsupportedSizeError):
        exact_p(1, 17, "dictator")


def test_unsupported_sizes_suggest_search():
    with pytest.raises(UnsupportedSizeError, match="local_search_p"):
        exact_p(2, 5, "dictator")
    with pytest.raises(UnsupportedSizeError):
        exact_p(4, 2, "dictator")
    with pytest.raises(UnsupportedSizeError, match="t <= 20"):
        exact_p(21, 1)


@pytest.mark.parametrize("t", [0, -1])
def test_non_positive_player_count_is_a_usage_error(t):
    with pytest.raises(ValueError, match="t >= 1"):
        exact_p(t, 2, "dictator")
    with pytest.raises(ValueError, match="t >= 1"):
        local_search_p(t, 2, "dictator")
    with pytest.raises(ValueError, match="n >= 1"):
        exact_p(2, t, "dictator")


def test_local_search_one_player_is_out_of_budget():
    with pytest.raises(UnsupportedSizeError, match="t >= 2"):
        local_search_p(1, 3, "dictator")


def test_threads_do_not_change_exact_results():
    a = exact_p(2, 3, "dictator", threads=1)
    b = exact_p(2, 3, "dictator", threads=4)
    assert a.value == b.value
    assert a.witness == b.witness


# --- last-player kernel -----------------------------------------------------


def plain_scan(r, entries, members, wins):
    """Every last-player table in product order, scored from its cells."""
    top, top_table = -1, None
    for table in product(range(r), repeat=entries):
        cells = [0] * r
        for e, i in enumerate(table):
            cells[i] |= 1 << e
        total = 0
        for mem in members:
            u = 0
            for i in mem:
                u |= cells[i]
            total += max((w & u).bit_count() for w in wins)
        if total > top:
            top, top_table = total, table
    return top, top_table


@st.composite
def kernel_cases(draw):
    """r member sets over the 2^n points, r^entries <= 4096, and the sets to answer with."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 4))
    entries = draw(st.integers(1, max(e for e in range(1, 13) if r**e <= 4096)))
    sets = draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=r, max_size=r))
    wins = draw(st.lists(st.integers(0, (1 << entries) - 1), min_size=1, max_size=6))
    members = [tuple(i for i, w in enumerate(sets) if w >> x & 1) for x in range(1 << n)]
    return r, entries, members, wins


@st.composite
def tied_kernel_cases(draw):
    """Kernel cases where many tables tie: the full mask answers every union, so a
    point scores |u[x]|, and members drawn from a small pool share their sets."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(2, 4))
    entries = draw(st.integers(1, max(e for e in range(1, 13) if r**e <= 4096)))
    pool = draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=1, max_size=2))
    sets = draw(st.lists(st.sampled_from(pool), min_size=r, max_size=r))
    others = draw(st.lists(st.integers(0, (1 << entries) - 1), max_size=3))
    wins = [*others, (1 << entries) - 1]
    members = [tuple(i for i, w in enumerate(sets) if w >> x & 1) for x in range(1 << n)]
    return r, entries, members, wins


@st.composite
def shared_point_kernel_cases(draw):
    """Kernel cases where one or more points lie in every member, r = 1 at times,
    so the walk knows those points' final score before the table is filled."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 4))
    entries = draw(st.integers(1, max(e for e in range(1, 13) if r**e <= 4096)))
    sets = draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=r, max_size=r))
    shared = draw(st.integers(1, (1 << (1 << n)) - 1))
    sets = [w | shared for w in sets]
    wins = draw(st.lists(st.integers(0, (1 << entries) - 1), min_size=1, max_size=6))
    members = [tuple(i for i, w in enumerate(sets) if w >> x & 1) for x in range(1 << n)]
    return r, entries, members, wins


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(kernel_cases())
def test_scan_last_player_matches_plain_scan(case):
    r, entries, members, wins = case
    total, table, _ = _scan_last_player(r, entries, members, wins)
    assert (total, table) == plain_scan(r, entries, members, wins)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(tied_kernel_cases())
def test_scan_last_player_matches_plain_scan_on_ties(case):
    r, entries, members, wins = case
    total, table, _ = _scan_last_player(r, entries, members, wins)
    assert (total, table) == plain_scan(r, entries, members, wins)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(shared_point_kernel_cases())
def test_scan_last_player_matches_plain_scan_with_points_in_every_member(case):
    r, entries, members, wins = case
    assert any(len(mem) == r for mem in members)
    total, table, _ = _scan_last_player(r, entries, members, wins)
    assert (total, table) == plain_scan(r, entries, members, wins)


def assert_score_table(masks, entries):
    """Every u for entries <= 10; above that 300 sampled u, the empty and the full one."""
    table = _score_table(masks, entries)
    assert len(table) == 1 << entries
    if entries <= 10:
        us = range(1 << entries)
    else:
        rng = random.Random(entries)
        us = [0, (1 << entries) - 1, *(rng.randrange(1 << entries) for _ in range(300))]
    for u in us:
        assert table[u] == max((w & u).bit_count() for w in masks), (masks, entries, u)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_score_table_is_the_best_overlap(data):
    entries = data.draw(st.integers(0, 16))
    masks = data.draw(st.lists(st.integers(0, (1 << entries) - 1), min_size=1, max_size=8))
    assert_score_table(masks, entries)


@pytest.mark.parametrize("entries", range(17))
def test_score_table_of_a_single_mask(entries):
    full = (1 << entries) - 1
    assert_score_table([full], entries)
    assert_score_table([0x5555 & full], entries)


def test_score_table_of_the_full_16_bit_mask_reaches_16():
    table = _score_table([0x00FF, 0xFFFF, 0x0F0F], 16)
    assert table[0xFFFF] == 16
    assert all(table[u] == u.bit_count() for u in range(1 << 16))


# Walked nodes with the budget bound that knows the final score of a point
# every member holds. Charging hmax points per unassigned entry to every
# point walked 9, 236, 566 and 9051; a union bound (every unassigned entry
# added to each point's union) walks 15390 at (2,3,intersecting) and 34750
# at (3,2,dictator).
@pytest.mark.parametrize(
    "t,n,kind,nodes",
    [
        (2, 2, "dictator", 5),
        (2, 3, "dictator", 104),
        (2, 3, "intersecting", 282),
        (3, 2, "dictator", 1584),
    ],
)
def test_last_player_walk_node_count(t, n, kind, nodes, monkeypatch):
    walked = []

    def scan(*args):
        total, table, count = _scan_last_player(*args)
        walked.append(count)
        return total, table, count

    monkeypatch.setattr("hatlab.solver._scan_last_player", scan)
    exact_p(t, n, kind, allow_slow=True)
    assert walked == [nodes]


def test_exact_p_holds_no_memory_after_return():
    # a walk kept alive by a reference cycle would hold its memo until a gc pass
    enumerate_family("dictator", 2)  # the family cache is allowed to stay
    gc.disable()
    tracemalloc.start()
    try:
        exact_p(3, 2, "dictator", allow_slow=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 1 << 20


# --- local search -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_local_search_reaches_small_optimum(seed):
    res = local_search_p(2, 2, "dictator", seed=seed, restarts=8)
    assert res.value == P22


def test_local_search_forced_instance():
    assert local_search_p(2, 1, "dictator", seed=3, restarts=2).value == Fraction(1, 4)


def test_local_search_never_exceeds_exact():
    for seed in (0, 1, 2):
        ls = local_search_p(2, 3, "dictator", seed=seed, restarts=6)
        assert ls.value <= P23
        ls32 = local_search_p(3, 2, "dictator", seed=seed, restarts=16)
        assert ls32.value <= P32 <= P22


def test_local_search_deterministic_and_thread_stable():
    a = local_search_p(3, 2, "dictator", seed=1, restarts=12, threads=1)
    b = local_search_p(3, 2, "dictator", seed=1, restarts=12, threads=8)
    assert a.value == b.value
    assert a.witness == b.witness


@pytest.mark.parametrize("t,n,kind", [(2, 3, "dictator"), (3, 2, "intersecting"), (2, 4, "dictator")])
def test_clearing_the_best_response_memo_keeps_every_result(t, n, kind, monkeypatch):
    # a memo cleared every 8 entries recomputes most unions; nothing else may change
    whole = local_search_p(t, n, kind, seed=3, restarts=6)
    monkeypatch.setattr(solver._Argmax, "CAP", 8)
    cleared = local_search_p(t, n, kind, seed=3, restarts=6)
    assert (cleared.value, cleared.witness, cleared.work) == (whole.value, whole.witness, whole.work)


def test_local_search_witness_validity():
    res = local_search_p(2, 3, "dictator", seed=5, restarts=4)
    fam = enumerate_family("dictator", 3)
    assert success_probability(res.witness, fam) == res.value


def test_local_search_budget():
    with pytest.raises(UnsupportedSizeError):
        local_search_p(3, 8, "dictator", seed=0, restarts=1)


def test_local_search_rejects_zero_restarts_and_wide_tables():
    with pytest.raises(ValueError, match="restarts >= 1"):
        local_search_p(2, 2, "dictator", seed=0, restarts=0)
    # n * (t - 1) = 17 visible bits per table, while n * t = 34 is checked after it
    with pytest.raises(UnsupportedSizeError, match="table input space 2\\^17"):
        local_search_p(2, 17, "dictator", seed=0, restarts=1)


@st.composite
def local_search_cases(draw):
    """(t, n, kind, seed, restarts) with at most 2^10 tuples."""
    t = draw(st.integers(2, 5))
    n = draw(st.integers(1, min(4, 10 // t)))
    kind = draw(st.sampled_from(["dictator", "intersecting", "monotone"]))
    return t, n, kind, draw(st.integers(0, 50)), draw(st.integers(1, 3))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(local_search_cases())
def test_local_search_matches_per_point_reference(case):
    res = local_search_p(*case)
    assert (res.value, res.witness.tables, res.work) == reference_local_search(*case)


@pytest.mark.parametrize(
    "solve",
    [
        lambda: exact_p(1, 3),
        lambda: exact_p(2, 2),
        lambda: local_search_p(3, 3, "dictator", seed=5, restarts=2),
    ],
    ids=["forced", "walk", "local-search"],
)
def test_count_check_fires(monkeypatch, solve):
    # a re-check one tuple away from the branch's count must not pass silently
    real = success_probability
    monkeypatch.setattr(
        "hatlab.solver.success_probability",
        lambda strategy, family: real(strategy, family)
        + Fraction(1, 1 << (strategy.n * strategy.t)),
    )
    with pytest.raises(AssertionError, match="re-evaluates"):
        solve()


# --- dominance chain --------------------------------------------------------


def test_dominance_chain_values():
    assert dominance_chain(1, 3) == (Fraction(1, 2),) * 3
    for t, n in [(2, 2), (2, 3)]:
        pd, pi, pm = dominance_chain(t, n)
        assert pd <= pi <= pm


def test_dominance_chain_raises_when_out_of_order(monkeypatch):
    values = {"dictator": Fraction(1, 2), "intersecting": Fraction(1, 4), "monotone": Fraction(1, 2)}
    monkeypatch.setattr(
        "hatlab.solver.exact_p", lambda t, n, kind: SimpleNamespace(value=values[kind])
    )
    with pytest.raises(RuntimeError, match="dominance chain violated"):
        dominance_chain(2, 2)


# --- pinned witnesses -------------------------------------------------------

# Value, method, work and sha256(repr(witness.tables)) per call, recorded by
# running these calls on the solver as it stood before its best-response loops
# were folded into _argmax / _best_response / _scan_last_player. They pin which
# witness comes back (ties go to the lowest member index and to the first
# table in product order), not only that it re-evaluates to its value.
PINNED_WITNESSES = [
    (("exact_p", 1, 3, "dictator"), "1/2", "exhaustive", 3,
     "efd70b49446e8be6bedf3dfe219a88a352831f684dce5d48505e29b260989f2b"),
    (("exact_p", 1, 3, "intersecting"), "1/2", "exhaustive", 4,
     "efd70b49446e8be6bedf3dfe219a88a352831f684dce5d48505e29b260989f2b"),
    (("exact_p", 1, 3, "monotone"), "1/2", "exhaustive", 4,
     "efd70b49446e8be6bedf3dfe219a88a352831f684dce5d48505e29b260989f2b"),
    (("exact_p", 2, 1, "dictator"), "1/4", "exhaustive", 1,
     "221953990bf67664d927a24118a0cc043785fbcda6c4c883e8b6c1079c238f3b"),
    (("exact_p", 2, 1, "intersecting"), "1/4", "exhaustive", 1,
     "221953990bf67664d927a24118a0cc043785fbcda6c4c883e8b6c1079c238f3b"),
    (("exact_p", 2, 1, "monotone"), "1/4", "exhaustive", 1,
     "221953990bf67664d927a24118a0cc043785fbcda6c4c883e8b6c1079c238f3b"),
    (("exact_p", 2, 2, "dictator"), "5/16", "best-response-exact", 16,
     "390f2e14f62145599e1a360b16bb8cf31b2496afb41c294d295d25a61a403442"),
    (("exact_p", 2, 2, "intersecting"), "5/16", "best-response-exact", 16,
     "390f2e14f62145599e1a360b16bb8cf31b2496afb41c294d295d25a61a403442"),
    (("exact_p", 2, 2, "monotone"), "5/16", "best-response-exact", 16,
     "390f2e14f62145599e1a360b16bb8cf31b2496afb41c294d295d25a61a403442"),
    (("exact_p", 2, 3, "dictator"), "11/32", "best-response-exact", 6561,
     "88b5c0bf69017a153851d636842a263c428094ee82730edb630a461a35fc5523"),
    (("exact_p", 2, 3, "intersecting"), "11/32", "best-response-exact", 65536,
     "45bf0a1e020814e26219ee14c51e3843da8d27ebe1807c247d89136981c41c6a"),
    (("exact_p", 2, 3, "monotone"), "11/32", "best-response-exact", 65536,
     "45bf0a1e020814e26219ee14c51e3843da8d27ebe1807c247d89136981c41c6a"),
    (("exact_p", 3, 2, "dictator"), "7/32", "best-response-exact", 65536,
     "0e9aed05b81d1762fc108b6926a0c9353aa74bc084260cd45fa5ac979bd8bdc0"),
    (("exact_p", 3, 2, "intersecting"), "7/32", "best-response-exact", 65536,
     "0e9aed05b81d1762fc108b6926a0c9353aa74bc084260cd45fa5ac979bd8bdc0"),
    (("exact_p", 3, 2, "monotone"), "7/32", "best-response-exact", 65536,
     "0e9aed05b81d1762fc108b6926a0c9353aa74bc084260cd45fa5ac979bd8bdc0"),
    (("local_search_p", 0), "89/256", "local-search", 91,
     "04cadd075e5f28f938833b0aa43dcf1e0d678935374b304fef1d40cf179647e7"),
    (("local_search_p", 1), "89/256", "local-search", 92,
     "d613f0d3b474b52d572e1640d965646a60fc8182fbd00f7d7538ad786bcb2070"),
    (("local_search_p", 2), "89/256", "local-search", 96,
     "cc6f13414a4d39c43c8b30181a24b811861febdf77dc9f930202df286e7b592a"),
    # local search at t=3 and t=4 as (t, n, kind, seed, restarts), recorded on
    # the solver as it stood before the index tables of local_search_p
    (("local_search_p", 3, 3, "dictator", 5, 8), "15/64", "local-search", 32,
     "393262005a463683285cd4746c0b9ab27af78fa6bc057499173f73bfdd762961"),
    (("local_search_p", 3, 4, "dictator", 5, 4), "1023/4096", "local-search", 26,
     "63a2704ac3e58626b9fb5263e58a70ab648f34c32e79662bb051ffe926331a21"),
    (("local_search_p", 4, 2, "dictator", 0, 8), "31/256", "local-search", 23,
     "8d825c96ab7e045293780989d273e8f891717a9555e1391059a9588a9e9ddd94"),
    # n=5 and the other kinds, recorded on the per-point ascent that the column
    # masks of local_search_p replaced
    (("local_search_p", 2, 5, "dictator", 0, 8), "179/512", "local-search", 31,
     "9f627dfd7e2e8bbf4c595e93eff0aa4ffcd92baf576518df4616761e116f607a"),
    (("local_search_p", 2, 3, "intersecting", 1, 4), "21/64", "local-search", 11,
     "c9daaa059a0ed5c82128401511195069ddb1ea618c4076463e23eee7c7038833"),
    (("local_search_p", 3, 2, "monotone", 2, 6), "13/64", "local-search", 13,
     "d6e97626a0139a5f8603b1af1c843fb4517e8a041aefedd7e235726bad755e28"),
    (("local_search_p", 4, 3, "dictator", 0, 2), "637/4096", "local-search", 12,
     "b84468cc1b73af5ba65634297dd362417efb04fe26fc64fea33b98f19c42e215"),
    # more players and the other kinds, recorded on the column-mask ascent that
    # the digit strings of local_search_p replaced; at (6, 2) and (10, 1) each
    # player's entries step through the tuples with a stride of their own
    (("local_search_p", 4, 4, "dictator", 0, 1), "5891/32768", "local-search", 16,
     "2ad77e4aedd1d61d16f3794a9dc1dd1dcb3834a970fdba2024903d6e14a75b8f"),
    (("local_search_p", 5, 3, "dictator", 0, 1), "1651/16384", "local-search", 8,
     "3d2e6b62ad40e36d1c6d552e6e0d22c70dfd8fd3b3ac62b33a49d62b20061afe"),
    (("local_search_p", 3, 5, "dictator", 0, 1), "8495/32768", "local-search", 17,
     "bce2af439fb73a50518206837995a71af31b4105db637268ce1676e660518ef0"),
    (("local_search_p", 3, 4, "intersecting", 0, 2), "995/4096", "local-search", 22,
     "7a2bcb032239fbfa8a452ecadee8307324e7bdaf2717ad9ab92736a2b6591596"),
    (("local_search_p", 2, 4, "monotone", 3, 4), "89/256", "local-search", 18,
     "09ff6f28b6269215766723d1f3196eff78e3cec84403503eaae7d236c5df64ec"),
    (("local_search_p", 6, 2, "dictator", 0, 1), "81/2048", "local-search", 3,
     "f807b35ad7b68eef73ab28a447bcd880cc3f035829ecc193170f873322446197"),
    (("local_search_p", 10, 1, "dictator", 0, 2), "1/1024", "local-search", 2,
     "7b5881fa2a793e9458c3c025499281aaebd102a8cd2bc4ae60536f514e9e8173"),
]


def _pinned_call(call):
    engine, *args = call
    if engine == "exact_p":
        return exact_p(*args, allow_slow=True)
    if len(args) == 1:
        return local_search_p(2, 4, "dictator", seed=args[0], restarts=32)
    t, n, kind, seed, restarts = args
    return local_search_p(t, n, kind, seed=seed, restarts=restarts)


@pytest.mark.parametrize(
    "call,value,method,work,digest",
    PINNED_WITNESSES,
    ids=["-".join(map(str, row[0])) for row in PINNED_WITNESSES],
)
def test_pinned_witnesses(call, value, method, work, digest):
    res = _pinned_call(call)
    assert (str(res.value), res.method, res.work) == (value, method, work)
    assert hashlib.sha256(repr(res.witness.tables).encode()).hexdigest() == digest


@pytest.mark.parametrize("kind", ["dictator", "intersecting", "monotone"])
def test_exact_p_above_table_budget_needs_allow_slow(kind, monkeypatch):
    # with the budget below every t=2, n=3 space, only the allow_slow route runs,
    # and it must return the same witness as the budgeted enumeration
    monkeypatch.setattr("hatlab.solver.MAX_LAST_PLAYER_TABLES", 100)
    with pytest.raises(UnsupportedSizeError, match="allow_slow"):
        exact_p(2, 3, kind)
    row = next(row for row in PINNED_WITNESSES if row[0] == ("exact_p", 2, 3, kind))
    test_pinned_witnesses(*row)


@pytest.mark.parametrize("kind,r", [("intersecting", 12), ("monotone", 24)])
def test_allow_slow_refuses_walks_over_its_table_budget(kind, r):
    # the n=4 intersecting walk passed 7 million nodes in 300 s without finishing
    with pytest.raises(UnsupportedSizeError, match=f"{r ** 16} tables") as exc:
        exact_p(2, 4, kind, allow_slow=True)
    assert "MIS" in str(exc.value)


def test_allow_slow_still_routes_the_n4_dictator_walk(monkeypatch):
    # 4^16 tables, the top of the allow_slow budget; the walk itself takes ~17 s
    routed = []
    monkeypatch.setattr(
        "hatlab.solver._exact_last_player", lambda family, t: routed.append((family.r, t))
    )
    exact_p(2, 4, "dictator", allow_slow=True)
    assert routed == [(4, 2)]
    with pytest.raises(UnsupportedSizeError, match="allow_slow=True"):
        exact_p(2, 4, "dictator")
