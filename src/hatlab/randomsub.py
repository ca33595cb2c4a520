"""Random vertex subsets and the expected best independent set inside them.

alpha**(G) is the expected (normalized) size of the largest independent set
contained in a uniformly random vertex subset W. Small graphs get the exact
value by full subset enumeration; larger ones a Monte Carlo estimate whose
only error is sampling error (each sample solves its induced MIS exactly).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedSizeError
from .game import WinningFamily, stream_rng
from .graphs import (
    MAX_SUBSET_DP_VERTICES, Graph, max_independent_set, mis_size_all_subsets, mis_size_in_subset
)


def sample_Rv(family: WinningFamily, seed: int) -> tuple[int, tuple[int, ...]]:
    """Draw a uniform point v and return it with {i : v in W_i}."""
    rng = random.Random(seed)
    v = rng.randrange(1 << family.n)
    return v, family.indices_containing(v)


@dataclass(frozen=True)
class SubsetSample:
    """A drawn vertex subset, tagged with how it was produced."""

    bits: int
    origin: str  # "binomial" or "family-induced"
    v: int | None = None  # the inducing point, when family-induced


def sample_binomial_subset(nbits: int, seed: int, index: int = 0) -> SubsetSample:
    w = stream_rng(seed, index).getrandbits(nbits)
    return SubsetSample(bits=w, origin="binomial")


@dataclass(frozen=True)
class RvReport:
    marginals: tuple[Fraction, ...]
    covariances: tuple[tuple[Fraction, ...], ...]
    marginals_exact_half: bool
    covariances_nonnegative: bool
    findings: tuple[str, ...]
    samples: int
    empirical_max_marginal_dev: float


def check_Rv_statistics(
    family: WinningFamily, samples: int = 2000, seed: int = 0
) -> RvReport:
    """Exact membership marginals and pairwise covariances, by counting.

    Sampling is only a smoke test against the exact counts; any exact
    violation is reported as a finding rather than raised, since it would
    indicate a broken family enumeration. `samples=0` skips the smoke test
    (the empirical deviation reads 0.0) and keeps the exact counts.
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
    findings = []
    for i, m in enumerate(marginals):
        if m != half:
            findings.append(f"marginal of set {i} is {m}, not 1/2")
    for i in range(r):
        for j in range(i + 1, r):
            if cov[i][j] < 0:
                findings.append(f"covariance of sets ({i}, {j}) is {cov[i][j]} < 0")

    counts = [0] * r
    for s in range(samples):
        rng = stream_rng(seed, s)
        v = rng.randrange(size)
        for i, w in enumerate(family.sets):
            if w >> v & 1:
                counts[i] += 1
    max_dev = max(
        (abs(c / samples - 0.5) for c in counts), default=0.0
    ) if samples else 0.0
    return RvReport(
        marginals=marginals,
        covariances=tuple(tuple(row) for row in cov),
        marginals_exact_half=all(m == half for m in marginals),
        covariances_nonnegative=all(
            cov[i][j] >= 0 for i in range(r) for j in range(r)
        ),
        findings=tuple(findings),
        samples=samples,
        empirical_max_marginal_dev=max_dev,
    )


def induced_subset_distribution(
    family: WinningFamily, cells: tuple[int, ...]
) -> dict[int, Fraction]:
    """Exact law of W = union of cells[i] over i in R_v, v uniform."""
    if len(cells) != family.r:
        raise ValueError(f"need one cell per family member ({family.r}), got {len(cells)}")
    size = 1 << family.n
    counts: dict[int, int] = {}
    for v in range(size):
        w = 0
        for i, s in enumerate(family.sets):
            if s >> v & 1:
                w |= cells[i]
        counts[w] = counts.get(w, 0) + 1
    return {w: Fraction(c, size) for w, c in counts.items()}


def sample_induced_subset(
    family: WinningFamily, cells: tuple[int, ...], seed: int
) -> SubsetSample:
    v, indices = sample_Rv(family, seed)
    w = 0
    for i in indices:
        w |= cells[i]
    return SubsetSample(bits=w, origin="family-induced", v=v)


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

    `threads` has no effect; it stays while `perfbench/workloads.py` passes it.
    """
    _check_vertices(g)
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    v = g.vcount
    s1 = s2 = 0
    for i in range(samples):
        # the draw of sample_binomial_subset(v, seed, i), without its wrapper
        a = mis_size_in_subset(g, stream_rng(seed, i).getrandbits(v))
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
    alpha_bar = max_independent_set(g).alpha_bar
    if mode == "exact":
        a2 = alpha_star_star_exact(g)
        return GapResult(alpha_bar, a2, alpha_bar - a2, "exact")
    if mode == "mc":
        est = alpha_star_star_mc(g, samples, seed)
        return GapResult(alpha_bar, est, float(alpha_bar) - est.mean, "mc")
    raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
