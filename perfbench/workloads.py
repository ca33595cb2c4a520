"""The four benchmark workloads: their inputs, their items and their checks.

Each workload is a set-up that builds its inputs from the seed, then a fixed
list of items that one caller runs one after another (a closed loop with one
client). An item calls the public functions of one hatlab layer inside a
span named `<module>.<function>`, checks what came back, and returns
`(ok, detail, fingerprint)`. The fingerprint holds every seeded result and
every count, so runs of one seed can be compared exactly.

`EXPECTED` pins the values the checker compares with. An entry marked
"upper bound" is a bound the result may not exceed; every other entry must
be matched exactly.

Why each workload exists, and which optimisation it exposes or bypasses, is
recorded in README.md next to this file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import hatlab.blockers
from hatlab import (
    alpha_star_star_exact,
    alpha_star_star_mc,
    certify_family,
    construct_blockers,
    enumerate_family,
    exact_p,
    family_from_json,
    family_to_json,
    hamming_power,
    hamming_product,
    kneser,
    local_search_p,
    max_independent_set,
    min_graph_blocker,
    random_graph,
    shift_graph,
    success_probability,
    verify_blocker,
)
from hatlab.blockers import check_pairwise_disjoint, union_measure

KINDS = ("dictator", "intersecting", "monotone")
DELTA = 0.15
CERTIFY_N = 14  # 774 oracle runs, about 3 s; n=16 takes about 13 s, too long to repeat in a run
SOLVE_THREADS = 1  # the control for any change to hatlab.parallel
MC_THREADS = 2  # the core count of the 2-core machine the workloads were sized on

EXPECTED: dict[str, Fraction | int] = {
    **{f"exact_p(2,3,{k})": Fraction(11, 32) for k in KINDS},
    **{f"exact_p(3,2,{k})": Fraction(7, 32) for k in KINDS},
    # upper bound: p_dict(2,4) = p_int(2,4) = 89/256
    "local_search_p(2,4,dictator,32)": Fraction(89, 256),
    # upper bound: p(t,n) <= p(1,n) = 1/2
    "local_search_p(3,3,dictator,8)": Fraction(1, 2),
    "local_search_p(3,4,dictator,4)": Fraction(1, 2),
    "max_independent_set(shift_graph(10))": Fraction(25, 100),
    # acceptance 06: alpha_bar(kneser(3)^2) = p_intersecting(2,3)
    "max_independent_set(hamming_power(kneser(3),2))": Fraction(11, 32),
    "max_independent_set(hamming_product(kneser(4),kneser(3)))": Fraction(44, 128),
    # upper bound: alpha** <= alpha_bar
    "alpha_star_star_mc(shift_graph(8),2000)": Fraction(16, 64),
    "alpha_star_star_mc(hamming_power(kneser(3),2),4000)": Fraction(22, 64),
    # the MC mean must lie within 4 stderr of alpha_star_star_exact(shift_graph(4))
    "alpha_star_star_mc(shift_graph(4),10000)": Fraction(56647, 262144),
    "alpha_star_star_exact(kneser(4))": Fraction(10463, 32768),
    # computed minima asserted in tests/test_blockers.py
    "min_graph_blocker(shift_graph(4))": 5,
    "min_graph_blocker(shift_graph(6))": 4,
}

Outcome = tuple[bool, str, list]


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[dict, dict, object, dict], Outcome]  # (inputs, pass state, tracer, expected)


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    setup: Callable[[int, object], dict]  # (seed, tracer) -> inputs
    items: tuple[Item, ...]
    # untimed checks after the passes: (inputs, first pass state) -> [(item, ok, detail)]
    post_check: Callable[[dict, dict], list[tuple[str, bool, str]]] | None = None


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _recheck(tr, strategy, family) -> Fraction:
    with tr.span("game.success_probability"):
        return success_probability(strategy, family)


# --- solve -----------------------------------------------------------------


def _setup_solve(seed: int, tr) -> dict:
    families = {}
    for kind, n in [(k, n) for n in (2, 3) for k in KINDS] + [("dictator", 4)]:
        with tr.span("game.enumerate_family"):
            families[kind, n] = enumerate_family(kind, n)
    return {"seed": seed, "families": families}


def _exact_item(t: int, n: int, kind: str) -> Item:
    name = f"exact_p({t},{n},{kind})"

    def run(inp, state, tr, expected):
        with tr.span("solver.exact_p") as sp:
            r = exact_p(t, n, kind, allow_slow=t > 2, threads=SOLVE_THREADS)
        sp.count("work", r.work)
        witness = _recheck(tr, r.witness, inp["families"][kind, n])
        ok = r.value == expected[name] and witness == r.value
        detail = f"value {r.value}, witness re-evaluates to {witness}, pinned {expected[name]}"
        return ok, detail, [str(r.value), r.work, r.method, digest(r.witness.tables)]

    return Item(name, run)


def _local_item(t: int, n: int, restarts: int) -> Item:
    name = f"local_search_p({t},{n},dictator,{restarts})"

    def run(inp, state, tr, expected):
        with tr.span("solver.local_search_p") as sp:
            r = local_search_p(t, n, "dictator", inp["seed"], restarts, threads=SOLVE_THREADS)
        sp.count("work", r.work)
        witness = _recheck(tr, r.witness, inp["families"]["dictator", n])
        ok = witness == r.value and 0 < r.value <= expected[name]
        detail = f"value {r.value}, witness re-evaluates to {witness}, upper bound {expected[name]}"
        return ok, detail, [str(r.value), r.work, digest(r.witness.tables)]

    return Item(name, run)


SOLVE = Workload(
    name="solve",
    threads=SOLVE_THREADS,
    setup=_setup_solve,
    items=(
        *(_exact_item(2, 3, k) for k in KINDS),
        *(_exact_item(3, 2, k) for k in KINDS),
        _local_item(2, 4, 32),
        _local_item(3, 3, 8),
        _local_item(3, 4, 4),
    ),
)


# --- mis -------------------------------------------------------------------

RANDOM_MIS_GRAPH = "random_graph(80,0.1,seed)"
MIS_GRAPHS: dict[str, Callable[[int], object]] = {
    "shift_graph(10)": lambda seed: shift_graph(10),
    "hamming_power(kneser(3),2)": lambda seed: hamming_power(kneser(3), 2),
    "hamming_product(kneser(4),kneser(3))": lambda seed: hamming_product(kneser(4), kneser(3)),
    RANDOM_MIS_GRAPH: lambda seed: random_graph(80, 0.1, seed),
}


def _build_graphs(specs: dict, seed: int, tr) -> dict:
    graphs = {}
    for name, make in specs.items():
        with tr.span("graphs.build"):
            graphs[name] = make(seed)
    return graphs


def _independent(g, set_bits: int) -> bool:
    m = set_bits
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        if g.self_loop[v] or g.adj[v] & set_bits:
            return False
    return True


def _mis_item(gname: str) -> Item:
    name = f"max_independent_set({gname})"

    def run(inp, state, tr, expected):
        g = inp["graphs"][gname]
        with tr.span("graphs.max_independent_set") as sp:
            r = max_independent_set(g)
        sp.count("nodes", r.nodes_explored)
        state[name] = r
        ok = (
            _independent(g, r.set_bits)
            and r.set_bits.bit_count() == r.size
            and r.alpha_bar == Fraction(r.size, g.vcount)
        )
        detail = f"size {r.size} of {g.vcount}, independent {ok}"
        if name in expected:
            ok = ok and r.alpha_bar == expected[name]
            detail += f", alpha_bar {r.alpha_bar}, pinned {expected[name]}"
        return ok, detail, [r.size, r.nodes_explored, hex(r.set_bits)]

    return Item(name, run)


def _reference_alpha(g) -> int:
    """alpha(g) as the maximum clique of the complement, by networkx."""
    import networkx as nx

    comp = nx.Graph()
    comp.add_nodes_from(v for v in range(g.vcount) if not g.self_loop[v])
    for u in comp.nodes:
        for v in comp.nodes:
            if u < v and not g.adj[u] >> v & 1:
                comp.add_edge(u, v)
    _, weight = nx.max_weight_clique(comp, weight=None)
    return weight


def _mis_post(inp: dict, state: dict) -> list[tuple[str, bool, str]]:
    name = f"max_independent_set({RANDOM_MIS_GRAPH})"
    if name not in state:
        return []
    try:
        ref = _reference_alpha(inp["graphs"][RANDOM_MIS_GRAPH])
    except ImportError as exc:
        return [(name, False, f"networkx reference unavailable: {exc}")]
    got = state[name].size
    return [(name, got == ref, f"size {got}, networkx reference {ref}")]


MIS = Workload(
    name="mis",
    threads=1,
    setup=lambda seed, tr: {"seed": seed, "graphs": _build_graphs(MIS_GRAPHS, seed, tr)},
    items=tuple(_mis_item(g) for g in MIS_GRAPHS),
    post_check=_mis_post,
)


# --- alphastar -------------------------------------------------------------

AS_GRAPHS: dict[str, Callable[[int], object]] = {
    "shift_graph(8)": lambda seed: shift_graph(8),
    "hamming_power(kneser(3),2)": lambda seed: hamming_power(kneser(3), 2),
    "shift_graph(4)": lambda seed: shift_graph(4),
    "random_graph(20,0.3,seed)": lambda seed: random_graph(20, 0.3, seed),
    "kneser(4)": lambda seed: kneser(4),
}
MC_RUNS = (("shift_graph(8)", 2000), ("hamming_power(kneser(3),2)", 4000), ("shift_graph(4)", 10000))
STDERR_TOLERANCE = 4


def _mc_name(gname: str, samples: int) -> str:
    return f"alpha_star_star_mc({gname},{samples})"


def _mc_item(gname: str, samples: int) -> Item:
    name = _mc_name(gname, samples)

    def run(inp, state, tr, expected):
        seed = inp["seed"]
        with tr.span("randomsub.alpha_star_star_mc") as sp:
            est = alpha_star_star_mc(inp["graphs"][gname], samples, seed, threads=MC_THREADS)
        sp.count("samples", est.samples)
        state[name] = est
        ok = est.samples == samples and est.seed == seed and est.stderr > 0 and est.mean > 0
        if gname == "shift_graph(4)":
            gap = abs(est.mean - float(expected[name]))
            ok = ok and gap <= STDERR_TOLERANCE * est.stderr
            detail = f"mean {est.mean!r}, {gap / est.stderr:.2f} stderr from exact {expected[name]}"
        else:
            ok = ok and est.mean <= expected[name]
            detail = f"mean {est.mean!r} +- {est.stderr!r}, upper bound {expected[name]}"
        return ok, detail, [repr(est.mean), repr(est.stderr), est.samples]

    return Item(name, run)


def _exact_star_item(gname: str) -> Item:
    name = f"alpha_star_star_exact({gname})"

    def run(inp, state, tr, expected):
        g = inp["graphs"][gname]
        with tr.span("randomsub.alpha_star_star_exact"):
            value = alpha_star_star_exact(g)
        # E[alpha(G[W])] / v over 2^v equally likely subsets W
        ok = 0 < value <= 1 and (value * g.vcount * 2**g.vcount).denominator == 1
        detail = f"value {value}"
        if name in expected:
            ok = ok and value == expected[name]
            detail += f", pinned {expected[name]}"
        return ok, detail, [str(value)]

    return Item(name, run)


def _alphastar_post(inp: dict, state: dict) -> list[tuple[str, bool, str]]:
    """Seed determinism independent of thread count: threads=1 must agree."""
    out = []
    for gname, samples in MC_RUNS:
        name = _mc_name(gname, samples)
        if name not in state:
            continue
        one = alpha_star_star_mc(inp["graphs"][gname], samples, inp["seed"], threads=1)
        many = state[name]
        same = (one.mean, one.stderr) == (many.mean, many.stderr)
        out.append((name, same, f"threads=1 mean {one.mean!r}, threads={MC_THREADS} mean {many.mean!r}"))
    return out


ALPHASTAR = Workload(
    name="alphastar",
    threads=MC_THREADS,
    setup=lambda seed, tr: {"seed": seed, "graphs": _build_graphs(AS_GRAPHS, seed, tr)},
    items=(
        *(_mc_item(g, s) for g, s in MC_RUNS),
        _exact_star_item("random_graph(20,0.3,seed)"),
        _exact_star_item("kneser(4)"),
    ),
    post_check=_alphastar_post,
)


# --- blockers --------------------------------------------------------------

BLOCKER_GRAPHS: dict[str, Callable[[int], object]] = {
    "shift_graph(4)": lambda seed: shift_graph(4),
    "shift_graph(6)": lambda seed: shift_graph(6),
}


def _setup_blockers(seed: int, tr) -> dict:
    winning = {}
    for n in (CERTIFY_N, 8):
        with tr.span("game.enumerate_family"):
            winning[n] = enumerate_family("dictator", n)
    return {"seed": seed, "winning": winning, "graphs": _build_graphs(BLOCKER_GRAPHS, seed, tr)}


def _construct(tr, n: int, seed: int):
    with tr.span("blockers.construct_blockers") as sp:
        family = construct_blockers(n, seed, DELTA)
    sp.count("tuples", len(family.tuples or ()))
    return family


def _construct_certified(inp, state, tr, expected):
    family = _construct(tr, CERTIFY_N, inp["seed"])
    state["family"] = family
    target = Fraction(1, 6) * (1 - Fraction(DELTA))
    ok = (
        not family.stalled
        and family.beta >= target
        and bool(family.tuples)
        and all(len(tp) == 6 for tp in family.tuples)
    )
    detail = f"{len(family.tuples or ())} tuples, beta {family.beta}, stalled {family.stalled}"
    return ok, detail, [len(family.tuples or ()), str(family.beta), family.stalled, digest(family.tuples)]


def _certify(inp, state, tr, expected):
    family = state["family"]
    with tr.span("blockers.certify_family") as sp:
        cert = certify_family(family, inp["winning"][CERTIFY_N])
    sp.count("oracle_runs", cert.oracle_runs)
    ok = cert.certified and not cert.failures and not family.stalled
    detail = f"certified {cert.certified}, {cert.oracle_runs} oracle runs, failures {cert.failures[:5]}"
    return ok, detail, [cert.certified, cert.oracle_runs, cert.blockers_covered]


def _codec(inp, state, tr, expected):
    family = state["family"]
    with tr.span("blockers.family_codec") as sp:
        text = family_to_json(family)
        back = family_from_json(text)
    sp.count("bytes", len(text.encode()))
    ok = (
        back.tuples == family.tuples
        and back.beta == family.beta
        and union_measure(family) == family.beta
        and check_pairwise_disjoint(family)
    )
    return ok, f"{len(text)} bytes, round trip and measure {ok}", [len(text), digest(text)]


def _verify8(inp, state, tr, expected):
    family = _construct(tr, 8, inp["seed"])
    if family.blockers is None or family.stalled:
        return False, f"n=8 family stalled {family.stalled} or not explicit", [family.stalled]
    winning = inp["winning"][8]
    good = scanned = 0
    for blocker in family.blockers:
        with tr.span("blockers.verify_blocker") as sp:
            res = verify_blocker(blocker, winning)
        sp.count("tables_scanned", res.tables_scanned)
        good += res.is_blocker
        scanned += res.tables_scanned
    count = len(family.blockers)
    return good == count, f"{good} of {count} blockers verified", [count, good, scanned]


def _min_blocker_item(gname: str) -> Item:
    name = f"min_graph_blocker({gname})"

    def run(inp, state, tr, expected):
        with tr.patch(hatlab.blockers, "maximum_independent_sets", "graphs.maximum_independent_sets"):
            with tr.span("blockers.min_graph_blocker"):
                size, verts = min_graph_blocker(inp["graphs"][gname])
        ok = size == expected[name] and len(verts) == size
        return ok, f"size {size} {verts}, pinned {expected[name]}", [size, list(verts)]

    return Item(name, run)


BLOCKERS = Workload(
    name="blockers",
    threads=1,
    setup=_setup_blockers,
    items=(
        Item(f"construct_blockers({CERTIFY_N},seed,{DELTA})", _construct_certified),
        Item(f"certify_family(n={CERTIFY_N})", _certify),
        Item(f"family_to_json+family_from_json(n={CERTIFY_N})", _codec),
        Item(f"verify_blocker(construct_blockers(8,seed,{DELTA}))", _verify8),
        *(_min_blocker_item(g) for g in BLOCKER_GRAPHS),
    ),
)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (SOLVE, MIS, ALPHASTAR, BLOCKERS)}


def derived_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics from per-span totals of one traced pass or set-up.

    A layer the workload does not enter reads 0.
    """

    def get(span: str, key: str = "s") -> float:
        return totals.get(span, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    mc_s = get("randomsub.alpha_star_star_mc")
    mc_cpu = get("randomsub.alpha_star_star_mc", "cpu_s")
    return {
        "game.enumerate_family.s": get("game.enumerate_family"),
        "game.success_probability.s": get("game.success_probability"),
        "game.success_probability.calls": get("game.success_probability", "calls"),
        "solver.exact_p.s": get("solver.exact_p"),
        "solver.exact_p.work": get("solver.exact_p", "work"),
        "solver.exact_p.work_per_s": ratio(get("solver.exact_p", "work"), get("solver.exact_p")),
        "solver.local_search_p.s": get("solver.local_search_p"),
        "solver.local_search_p.work": get("solver.local_search_p", "work"),
        "graphs.build.s": get("graphs.build"),
        "graphs.max_independent_set.s": get("graphs.max_independent_set"),
        "graphs.max_independent_set.nodes": get("graphs.max_independent_set", "nodes"),
        "graphs.max_independent_set.nodes_per_s": ratio(
            get("graphs.max_independent_set", "nodes"), get("graphs.max_independent_set")
        ),
        "graphs.maximum_independent_sets.s": get("graphs.maximum_independent_sets"),
        "randomsub.alpha_star_star_mc.s": mc_s,
        "randomsub.alpha_star_star_mc.cpu_s": mc_cpu,
        "randomsub.alpha_star_star_mc.samples_per_s": ratio(
            get("randomsub.alpha_star_star_mc", "samples"), mc_s
        ),
        "randomsub.alpha_star_star_mc.cpu_over_wall": ratio(mc_cpu, mc_s),
        "randomsub.alpha_star_star_exact.s": get("randomsub.alpha_star_star_exact"),
        "blockers.construct_blockers.s": get("blockers.construct_blockers"),
        "blockers.construct_blockers.tuples": get("blockers.construct_blockers", "tuples"),
        "blockers.certify_family.s": get("blockers.certify_family"),
        "blockers.certify_family.oracle_runs": get("blockers.certify_family", "oracle_runs"),
        "blockers.certify_family.s_per_oracle_run": ratio(
            get("blockers.certify_family"), get("blockers.certify_family", "oracle_runs")
        ),
        "blockers.verify_blocker.s": get("blockers.verify_blocker"),
        "blockers.verify_blocker.calls": get("blockers.verify_blocker", "calls"),
        "blockers.verify_blocker.tables_scanned": get("blockers.verify_blocker", "tables_scanned"),
        "blockers.family_codec.s": get("blockers.family_codec"),
        "blockers.family_codec.bytes": get("blockers.family_codec", "bytes"),
        "blockers.min_graph_blocker.s": get("blockers.min_graph_blocker"),
    }
