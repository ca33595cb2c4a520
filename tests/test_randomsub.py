"""Random-subset quantities: R_v statistics, alpha**, gaps."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from hatlab.errors import UnsupportedSizeError
from hatlab.game import enumerate_family, stream_rng
from hatlab.graphs import (
    complete_graph,
    edgeless_graph,
    hamming_power,
    kneser,
    mis_size_in_subset,
    random_graph,
    shift_graph,
)
from hatlab.randomsub import (
    alpha_star_star_exact,
    alpha_star_star_mc,
    check_Rv_statistics,
    epsilon_gap,
)
from hatlab.graphs import max_independent_set


# --- R_v --------------------------------------------------------------------


def test_all_ones_in_every_intersecting_family():
    fam = enumerate_family("intersecting", 3)
    assert fam.indices_containing(0b111) == (0, 1, 2, 3)


@pytest.mark.parametrize("kind,n", [
    ("dictator", 2), ("dictator", 3),
    ("intersecting", 2), ("intersecting", 3),
])
def test_Rv_statistics_exact(kind, n):
    rep = check_Rv_statistics(enumerate_family(kind, n))
    assert rep.marginals_exact_half
    assert rep.covariances_nonnegative


def test_dictator_covariances_are_exactly_zero():
    rep = check_Rv_statistics(enumerate_family("dictator", 3))
    for i in range(3):
        for j in range(3):
            expected = Fraction(1, 4) if i == j else Fraction(0)
            assert rep.covariances[i][j] == expected


def test_single_set_family_marginal():
    rep = check_Rv_statistics(enumerate_family("dictator", 1))
    assert rep.marginals == (Fraction(1, 2),)


# --- alpha** exact ----------------------------------------------------------


def test_alpha_star_star_complete4():
    assert alpha_star_star_exact(complete_graph(4)) == Fraction(15, 64)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_alpha_star_star_edgeless(m):
    assert alpha_star_star_exact(edgeless_graph(m)) == Fraction(1, 2)


def test_alpha_star_star_complete_closed_form():
    # the best independent set inside W is a single vertex unless W is empty
    for m in (2, 3, 5):
        assert alpha_star_star_exact(complete_graph(m)) == Fraction(2**m - 1, m * 2**m)


def test_alpha_star_star_shift4_in_open_interval():
    val = alpha_star_star_exact(shift_graph(4))
    assert Fraction(0) < val < Fraction(1, 4)


def test_alpha_star_star_with_self_loops():
    # kneser(2): self-loop at 0; independent subsets live in {1,2,3} with the
    # single edge 1-2, so summing alpha over the 8 subsets of {1,2,3} gives
    # 10, doubled for the choice of including vertex 0
    assert alpha_star_star_exact(kneser(2)) == Fraction(2 * 10, 16 * 4)


def test_alpha_star_star_dp_matches_per_subset_search():
    g = shift_graph(3)
    from hatlab.graphs import mis_size_all_subsets

    table = mis_size_all_subsets(g)
    rng = random.Random(2)
    for _ in range(60):
        w = rng.getrandbits(g.vcount)
        assert table[w] == mis_size_in_subset(g, w)


def test_alpha_star_star_budget():
    with pytest.raises(UnsupportedSizeError):
        alpha_star_star_exact(edgeless_graph(24))


def test_alpha_star_star_below_alpha_bar():
    for g in (complete_graph(4), shift_graph(4), kneser(3), random_graph(10, 0.4, 1)):
        assert Fraction(0) <= alpha_star_star_exact(g) <= max_independent_set(g).alpha_bar


def test_monotone_under_edge_addition():
    rng = random.Random(8)
    for trial in range(5):
        g = random_graph(9, 0.3, trial)
        base = alpha_star_star_exact(g)
        non_edges = [
            (u, v)
            for u in range(9)
            for v in range(u + 1, 9)
            if not g.has_edge(u, v)
        ]
        u, v = non_edges[rng.randrange(len(non_edges))]
        assert alpha_star_star_exact(g.with_edge(u, v)) <= base


# --- alpha** Monte Carlo ----------------------------------------------------


@pytest.mark.parametrize(
    "make", [lambda: shift_graph(4), lambda: random_graph(21, 0.3, 3)],
    ids=["table-route", "search-route"],
)
def test_mc_is_the_mean_over_the_stream_draws(make):
    # sample i is stream_rng(seed, i).getrandbits(vcount); shift(4) has 16
    # vertices and reads the subset-DP table, gnp(21) runs the search per draw
    g, samples, seed = make(), 300, 7
    v = g.vcount
    sizes = [
        mis_size_in_subset(g, stream_rng(seed, i).getrandbits(v)) for i in range(samples)
    ]
    mean = sum(sizes) / (samples * v)
    var = (sum(a * a for a in sizes) / (v * v) - samples * mean * mean) / (samples - 1)
    stderr = math.sqrt(max(var, 0.0) / samples)
    est = alpha_star_star_mc(g, samples=samples, seed=seed)
    assert (repr(est.mean), repr(est.stderr)) == (repr(mean), repr(stderr))


def test_mc_matches_exact_within_four_stderr():
    for g in (complete_graph(4), edgeless_graph(8), shift_graph(4)):
        est = alpha_star_star_mc(g, samples=10_000, seed=3)
        exact = float(alpha_star_star_exact(g))
        assert abs(est.mean - exact) <= 4 * max(est.stderr, 1e-12), g.label


def test_mc_deterministic_across_threads():
    g = shift_graph(4)
    a = alpha_star_star_mc(g, samples=2_000, seed=9, threads=1)
    b = alpha_star_star_mc(g, samples=2_000, seed=9, threads=8)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_mc_edgeless_exact_half():
    est = alpha_star_star_mc(edgeless_graph(8), samples=10_000, seed=2)
    assert abs(est.mean - 0.5) <= 4 * est.stderr


# (mean, stderr) reprs at seed 11, each sample's draw and size unchanged since
# they were recorded. The first four predate the size-only MIS search; the
# last three, which straddle the subset-DP budget (kneser(4) has a self-loop),
# predate the subset-DP table route.
PINNED_MC = [
    (lambda: shift_graph(8), 2000, "0.184171875", "0.0004560095071130376"),
    (lambda: hamming_power(kneser(3), 2), 4000, "0.23473046875", "0.0004538703599295031"),
    (lambda: shift_graph(4), 10000, "0.2164875", "0.0003674894409692917"),
    (lambda: hamming_power(kneser(4), 2), 200, "0.2318359375", "0.0009769550090592573"),
    (lambda: kneser(4), 2000, "0.31946875", "0.0017710071096158542"),
    (lambda: random_graph(20, 0.3, 3), 2000, "0.27525", "0.001171283356985479"),
    (lambda: random_graph(21, 0.3, 3), 2000, "0.2647380952380952", "0.0010529887947035275"),
]


@pytest.mark.parametrize(
    "make,samples,mean,stderr", PINNED_MC,
    ids=["shift8", "kneser3^2", "shift4", "kneser4^2", "kneser4", "gnp20", "gnp21"],
)
def test_mc_estimates_pinned(make, samples, mean, stderr):
    est = alpha_star_star_mc(make(), samples=samples, seed=11)
    assert (repr(est.mean), repr(est.stderr)) == (mean, stderr)


# --- gaps -------------------------------------------------------------------


def test_gap_edgeless():
    res = epsilon_gap(edgeless_graph(6))
    assert res.gap == Fraction(1, 2)
    assert res.provenance == "exact"


def test_gap_complete4():
    assert epsilon_gap(complete_graph(4)).gap == Fraction(1, 64)


def test_gap_positive_on_seeded_random_graphs():
    for seed in range(1, 6):
        g = random_graph(12, 0.5, seed)
        res = epsilon_gap(g)
        assert res.gap > 0, g.label


def test_gap_mc_mode():
    res = epsilon_gap(shift_graph(4), mode="mc", samples=4_000, seed=5)
    exact = epsilon_gap(shift_graph(4)).gap
    assert res.provenance == "mc"
    assert abs(res.gap - float(exact)) < 0.02


def test_alpha_star_star_of_empty_graph_rejected():
    with pytest.raises(ValueError, match="no vertices"):
        alpha_star_star_exact(edgeless_graph(0))
    with pytest.raises(ValueError, match="no vertices"):
        alpha_star_star_mc(edgeless_graph(0), samples=5, seed=0)


def test_mc_and_gap_reject_bad_arguments():
    with pytest.raises(ValueError, match="at least 2 samples"):
        alpha_star_star_mc(shift_graph(4), samples=1, seed=0)
    with pytest.raises(ValueError, match="mode must be 'exact' or 'mc', got 'fast'"):
        epsilon_gap(shift_graph(4), mode="fast")
