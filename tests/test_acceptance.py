"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; the
timing guards use generous single-machine budgets.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product

from hatlab.blockers import (
    Blocker,
    base_blockers,
    certify_family,
    check_pairwise_disjoint,
    construct_blockers,
    decrement_bound,
    k_sequence,
    min_graph_blocker,
    verify_blocker,
)
from hatlab.game import enumerate_family, winning_set
from hatlab.graphs import (
    complete_graph,
    edgeless_graph,
    hamming_power,
    kneser,
    max_independent_set,
    maximum_independent_sets,
    random_graph,
    shift_graph,
)
from hatlab.randomsub import (
    alpha_star_star_exact,
    alpha_star_star_mc,
    check_Rv_statistics,
)
from hatlab.solver import dominance_chain, exact_p, local_search_p

from mis_reference import reference_maximum_independent_sets


def report(num: str, desc: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:>3} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_01_forced_values():
    t0 = time.monotonic()
    ok = all(exact_p(1, n, "dictator").value == Fraction(1, 2) for n in range(1, 9))
    ok = ok and all(
        exact_p(t, 1, "dictator").value == Fraction(1, 2**t) for t in range(1, 7)
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report("1", "forced values p(1,n)=1/2 and p(t,1)=2^-t", ok, f"{elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2):
        fam = enumerate_family("dictator", n)
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
        ok = ok and Fraction(best, size * size) == exact_p(2, n, "dictator").value
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    report("2", "double enumeration equals best-response engine (t=2, n<=2)", ok,
           f"{elapsed:.2f}s")


def test_criterion_03_folklore_bound():
    t0 = time.monotonic()
    values = {n: exact_p(2, n, "dictator") for n in (1, 2, 3)}
    ok = all(res.value <= Fraction(3, 8) for res in values.values())
    ok = ok and values[3].work == 6561
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    detail = ", ".join(f"p(2,{n})={res.value}" for n, res in values.items())
    report("3", "p(2,n) <= 3/8 for n=1..3", ok, f"{detail}; {elapsed:.2f}s")


def test_criterion_04_monotonicity():
    ok = True
    for kind in ("dictator", "intersecting", "monotone"):
        for n in (1, 2, 3):
            ok = ok and exact_p(2, n, kind).value <= exact_p(1, n, kind).value
    ls = local_search_p(3, 2, "dictator", seed=1, restarts=32)
    p22 = exact_p(2, 2, "dictator").value
    ok = ok and ls.value <= p22
    report("4", "p(2,n) <= p(1,n) and search(3,2) <= p(2,2)", ok,
           f"search={ls.value} <= {p22}")


def test_criterion_05_dominance_chain():
    ok = True
    details = []
    for t, n in ((1, 2), (1, 3), (2, 2), (2, 3)):
        pd, pi, pm = dominance_chain(t, n)
        ok = ok and pd <= pi <= pm
        details.append(f"(t={t},n={n}): {pd} <= {pi} <= {pm}")
    report("5", "dominance chain dict <= intersecting <= monotone", ok,
           "; ".join(details))


def test_criterion_06_observation_cross_check():
    t0 = time.monotonic()
    ok = True
    for n, t in ((2, 1), (3, 1), (2, 2), (3, 2)):
        ab = max_independent_set(hamming_power(kneser(n), t)).alpha_bar
        pv = exact_p(t, n, "intersecting").value
        ok = ok and ab == pv
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report("6", "alpha_bar(kneser(n)^t) equals p_intersecting(t,n)", ok,
           f"{elapsed:.2f}s")


def test_criterion_07_kneser_baselines():
    ok = True
    for n in (2, 3, 4):
        res = max_independent_set(kneser(n))
        ok = ok and res.size == 1 << (n - 1) and res.alpha_bar == Fraction(1, 2)
    report("7", "MIS(kneser(n)) = 2^(n-1) for n=2..4", ok)


def test_criterion_08_base_blockers():
    ok = True
    for n in range(1, 7):
        fam = base_blockers(n)
        winning = enumerate_family("dictator", n)
        ok = ok and all(verify_blocker(b, winning).is_blocker for b in fam.blockers)
        ok = ok and fam.blocker_count == 1 << (n - 1)
    winning = enumerate_family("dictator", 4)
    res = verify_blocker(Blocker(t=1, n=4, points=((0b0110,),)), winning)
    ok = ok and not res.is_blocker and res.counterexample is not None
    if res.counterexample is not None:
        w = winning_set(res.counterexample.to_strategy(), winning)
        ok = ok and not (w >> 0b0110 & 1)
    report("8", "complement pairs certify for n<=6; singleton refuted concretely", ok)


def test_criterion_09_constructed_blockers():
    t0 = time.monotonic()
    family = construct_blockers(16, seed=7, delta=0.15)
    ok = family.k == 12 == k_sequence(2)
    ok = ok and not family.stalled
    ok = ok and Fraction(85, 100) / 6 <= family.beta <= Fraction(1, 6)
    ok = ok and check_pairwise_disjoint(family)
    winning16 = enumerate_family("dictator", 16)
    cert = certify_family(family, winning16)
    ok = ok and cert.certified and cert.blockers_covered == family.blocker_count
    # spot-check the class certification against the oracle on concrete blockers
    rng = random.Random(0)
    pairs = family.pair_list()
    for _ in range(25):
        x, xbar = pairs[rng.randrange(len(pairs))]
        ytuple = family.tuples[rng.randrange(len(family.tuples))]
        probe = Blocker(2, 16, tuple((a, y) for a in (x, xbar) for y in ytuple))
        ok = ok and verify_blocker(probe, winning16).is_blocker
    # cross-validate at n=4 by full enumeration over both players' tables
    fam4 = construct_blockers(4, seed=2, delta=0.5)
    winning4 = enumerate_family("dictator", 4)
    for b in fam4.materialize():
        ok = ok and verify_blocker(b, winning4).is_blocker
        xs = sorted({p[0] for p in b.points})
        ys = sorted({p[1] for p in b.points})
        blocked_everywhere = True
        for g in product(range(4), repeat=len(xs)):
            g_of = dict(zip(xs, g))
            for f in product(range(4), repeat=len(ys)):
                f_of = dict(zip(ys, f))
                if not any(
                    (x >> f_of[y] & 1) and (y >> g_of[x] & 1) for x, y in b.points
                ):
                    blocked_everywhere = False
        ok = ok and blocked_everywhere
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report("9", "n=16 construction: k=12, disjoint, beta window, certified", ok,
           f"beta={family.beta} ({float(family.beta):.5f}), "
           f"{family.blocker_count} blockers, {cert.oracle_runs} oracle runs, "
           f"{elapsed:.1f}s")


def test_criterion_10_decrement_check():
    ok = decrement_bound(2, 1) == Fraction(1, 128)
    bound = Fraction(1, 2) - Fraction(1, 128)
    values = {n: exact_p(2, n, "dictator").value for n in (1, 2, 3)}
    ok = ok and all(v <= bound for v in values.values())
    report("10", "p(2,n) <= 1/2 - 1/128 for n<=3", ok,
           ", ".join(f"p(2,{n})={v}" for n, v in values.items()))


def test_criterion_11_k_sequence():
    ok = k_sequence(1) == 2 and k_sequence(2) == 12 and k_sequence(3) == 32_449_872
    for k in (2, 12):
        ok = ok and decrement_bound(k, Fraction(2, k)) == Fraction(
            1, k * k * (1 << (2 * k + 1))
        )
    report("11", "k-sequence values and corollary identity", ok)


def test_criterion_12a_shift_alpha():
    t0 = time.monotonic()
    ok = all(
        max_independent_set(shift_graph(m)).alpha_bar == Fraction(1, 4)
        for m in (4, 6)
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report("12a", "alpha_bar(shift(m)) = 1/4 for m=4,6", ok, f"{elapsed:.2f}s")


def _shift_blocker_certificate(m: int, size: int, witness: tuple[int, ...]) -> dict[str, bool]:
    """Checks (a)-(e) that `witness` is a minimum blocker of shift(m)."""
    g = shift_graph(m)
    pairs = [divmod(v, m) for v in range(m * m)]

    def rule(p: tuple[int, int], q: tuple[int, int]) -> bool:
        # the shift_graph docstring: (i,j) meets (j,k) whenever i != k
        (a, b), (c, d) = p, q
        return p != q and ((b == c and a != d) or (d == a and b != c))

    def mask(vertices) -> int:
        out = 0
        for v in vertices:
            out |= 1 << v
        return out

    sets = reference_maximum_independent_sets(g)

    def hits_all(chosen: int) -> bool:
        return all(s & chosen for s in sets)

    # the balanced products A x A^c, |A| = m/2
    products = [
        mask(a * m + b for a in half for b in range(m) if b not in half)
        for half in combinations(range(m), m // 2)
    ]
    return {
        "a: adjacency is the docstring rule": (
            g.vcount == m * m
            and not any(g.self_loop)
            and all(
                g.adj[u] == mask(v for v in range(m * m) if rule(pairs[u], pairs[v]))
                for u in range(m * m)
            )
        ),
        "b: reference maximum sets agree": sets == maximum_independent_sets(g),
        "c: witness meets every maximum set": (
            len(set(witness)) == size and hits_all(mask(witness))
        ),
        # hitting every set is preserved by supersets, so size - 1 suffices
        "d: no smaller set meets them all": not any(
            hits_all(mask(c)) for c in combinations(range(m * m), size - 1)
        ),
        "e: every m/2-set misses a balanced product": (
            all(p in sets for p in products)
            and all(
                any(p & mask(c) == 0 for p in products)
                for c in combinations(range(m * m), m // 2)
            )
        ),
    }


def test_criterion_12b_shift_min_blocker():
    # The spec asks for min blocker = m/2 (2 for m=4, 3 for m=6), which no
    # vertex set attains: read each chosen vertex (a,b) as an arc a->b; with at
    # most m/2 arcs at least m/2 points have no outgoing arc, and a balanced
    # product A x A^c built on them escapes every chosen vertex. The computed
    # minima (5, 4) are certified by checks (a)-(e) against an enumeration of
    # the maximum independent sets that min_graph_blocker does not use.
    t0 = time.monotonic()
    got = {m: min_graph_blocker(shift_graph(m)) for m in (4, 6)}
    elapsed = time.monotonic() - t0
    failed = [
        f"m={m} {check}"
        for m, (size, witness) in got.items()
        for check, passed in _shift_blocker_certificate(m, size, witness).items()
        if not passed
    ]
    ok = got[4][0] == 5 and got[6][0] == 4 and not failed and elapsed < 60.0
    detail = f"spec m/2 = (2, 3); computed ({got[4][0]}, {got[6][0]}); {elapsed:.2f}s"
    if failed:
        detail += "; failed " + ", ".join(failed)
    report("12b", "min blocker of shift(m) is (5, 4) for m=4,6, certified minimum; m/2 refuted",
           ok, detail)


def test_criterion_13_alpha_star_star_calibration():
    ok = alpha_star_star_exact(complete_graph(4)) == Fraction(15, 64)
    ok = ok and alpha_star_star_exact(edgeless_graph(8)) == Fraction(1, 2)
    instances = [complete_graph(4), shift_graph(4)] + [
        random_graph(12, 0.5, seed) for seed in range(1, 6)
    ]
    details = []
    for g in instances:
        exact = alpha_star_star_exact(g)
        est = alpha_star_star_mc(g, samples=10_000, seed=17)
        dev = abs(est.mean - float(exact))
        ok = ok and dev <= 4 * max(est.stderr, 1e-12)
        gap = max_independent_set(g).alpha_bar - exact
        ok = ok and gap > 0
        details.append(f"{g.label}: gap={float(gap):.4f}, dev={dev / max(est.stderr, 1e-12):.1f}se")
    report("13", "alpha** exact values, MC within 4 stderr, positive gaps", ok,
           "; ".join(details))


def test_criterion_14_rv_statistics():
    ok = True
    for kind in ("dictator", "intersecting"):
        for n in (2, 3):
            rep = check_Rv_statistics(enumerate_family(kind, n))
            ok = ok and rep.marginals_exact_half and rep.covariances_nonnegative
    report("14", "exact R_v marginals 1/2 and nonnegative covariances", ok)


def test_criterion_15_cli_determinism():
    import os
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    commands = [
        ["solve", "--t", "2", "--n", "2", "--mode", "search", "--seed", "5"],
        ["alpha", "--graph", "gnp:10:0.5:3"],
        ["alphastar", "--graph", "shift:4", "--mode", "mc", "--samples", "2000",
         "--seed", "11"],
        ["blocker", "build", "--n", "8", "--seed", "4", "--delta", "0.5"],
    ]
    ok = True
    for cmd in commands:
        outs = set()
        for threads in ("1", "8"):
            for _ in range(2):
                res = subprocess.run(
                    [sys.executable, "-m", "hatlab.cli", "--threads", threads] + cmd,
                    capture_output=True, text=True, timeout=600, env=env,
                )
                ok = ok and res.returncode == 0
                outs.add(res.stdout)
        ok = ok and len(outs) == 1
        if outs:
            json.loads(next(iter(outs)))  # must be valid JSON
    report("15", "seeded CLI runs byte-identical across runs and thread counts", ok)
