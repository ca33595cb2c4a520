"""Random vertex subsets and the expected best independent set inside them.

alpha**(G) is the expected (normalized) size of the largest independent set
contained in a uniformly random vertex subset W. Small graphs get the exact
value by full subset enumeration; larger ones a Monte Carlo estimate whose
only error is sampling error (each sample solves its induced MIS exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import UnsupportedSizeError, _quote
from .game import WinningFamily, stream_rng
from .graphs import (
    MAX_MIS_VERTICES,
    MAX_SUBSET_DP_VERTICES,
    Graph,
    max_independent_set,
    mis_size_all_subsets,
    mis_size_in_subset,
)


@dataclass(frozen=True)
class RvReport:
    marginals: tuple[Fraction, ...]
    covariances: tuple[tuple[Fraction, ...], ...]
    marginals_exact_half: bool
    covariances_nonnegative: bool


def check_Rv_statistics(family: WinningFamily) -> RvReport:
    """Exact membership marginals and pairwise covariances, by counting.

    A marginal other than 1/2 or a negative covariance would indicate a
    broken family enumeration; the report's two booleans say so rather than
    raising.
    """
    n, r = family.n, family.r
    size = 1 << n
    half = Fraction(1, 2)
    marginals = tuple(Fraction(w.bit_count(), size) for w in family.sets)
    cov = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            joint = Fraction((family.sets[i] & family.sets[j]).bit_count(), size)
            cov[i][j] = joint - marginals[i] * marginals[j]
    return RvReport(
        marginals=marginals,
        covariances=tuple(tuple(row) for row in cov),
        marginals_exact_half=all(m == half for m in marginals),
        covariances_nonnegative=all(
            cov[i][j] >= 0 for i in range(r) for j in range(r)
        ),
    )


def _check_vertices(g: Graph) -> None:
    if g.vcount == 0:
        raise ValueError("alpha** of a graph with no vertices is undefined")


def alpha_star_star_exact(g: Graph) -> Fraction:
    """E_W[ max independent subset of W ] / vcount, by full enumeration."""
    _check_vertices(g)
    if g.vcount > MAX_SUBSET_DP_VERTICES:
        raise UnsupportedSizeError(
            f"exact alpha** enumerates 2^{g.vcount} subsets; budget is "
            f"vcount <= {MAX_SUBSET_DP_VERTICES}, use alpha_star_star_mc"
        )
    table = mis_size_all_subsets(g)
    return Fraction(sum(table), len(table) * g.vcount)


@dataclass(frozen=True)
class AlphaStarStarEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


def alpha_star_star_mc(
    g: Graph, samples: int, seed: int, threads: int = 1
) -> AlphaStarStarEstimate:
    """Unbiased Monte Carlo estimate; each sample's MIS is solved exactly.

    Sample i draws W from `stream_rng(seed, i)`, so the estimate depends on
    the seed alone. A graph within the subset-DP budget
    (vcount <= MAX_SUBSET_DP_VERTICES) reads alpha(G[W]) from one
    `mis_size_all_subsets` table; a larger one runs the size-only search of
    `mis_size_in_subset` per sample, whose nodes peel on the byte-lane
    table the graph builds once (`Graph.lane_drop`) and keeps for every
    later sample. Both give the same exact size, so the route never changes
    the estimate. Over MAX_MIS_VERTICES, as for `max_independent_set`, it
    raises UnsupportedSizeError.

    `threads` has no effect; it stays while `perfbench/workloads.py` passes it.
    """
    _check_vertices(g)
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    v = g.vcount
    if v > MAX_MIS_VERTICES:
        raise UnsupportedSizeError(
            f"alpha** Monte Carlo solves each sample exactly, up to {MAX_MIS_VERTICES} "
            f"vertices; got {v}"
        )
    if v <= MAX_SUBSET_DP_VERTICES:
        size_of = mis_size_all_subsets(g).__getitem__
    else:
        size_of = partial(mis_size_in_subset, g)
    s1 = s2 = 0
    for i in range(samples):
        a = size_of(stream_rng(seed, i).getrandbits(v))
        s1 += a
        s2 += a * a
    mean = s1 / (samples * v)
    var = (s2 / (v * v) - samples * mean * mean) / (samples - 1)
    stderr = math.sqrt(max(var, 0.0) / samples)
    return AlphaStarStarEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


@dataclass(frozen=True)
class GapResult:
    alpha_bar: Fraction
    alpha_star_star: Fraction | AlphaStarStarEstimate
    gap: Fraction | float
    provenance: str


def epsilon_gap(
    g: Graph,
    mode: str = "exact",
    samples: int = 10_000,
    seed: int = 0,
) -> GapResult:
    """alpha_bar(G) - alpha**(G), exact or estimated per `mode`."""
    if mode not in ("exact", "mc"):
        raise ValueError(f"mode must be 'exact' or 'mc', got {_quote(mode)}")
    alpha_bar = max_independent_set(g).alpha_bar
    if mode == "exact":
        a2 = alpha_star_star_exact(g)
        return GapResult(alpha_bar, a2, alpha_bar - a2, "exact")
    est = alpha_star_star_mc(g, samples, seed)
    return GapResult(alpha_bar, est, float(alpha_bar) - est.mean, "mc")
