"""Blocker construction and certification for the hat-stack game.

A blocker is a set of tuples meeting every winning set of the dictator game.
Certification is a refutation search: enumerate the second player's table on
the coordinates the blocker touches and ask whether the first player can
dodge every constraint; if no table lets it dodge all of them, the set is a
certified blocker, otherwise the dodging partial strategy is returned as a
counterexample. Each table costs one lane test: every touched second
coordinate owns a lane of n+1 bits in one integer, the first coordinates
that constrain it are ORed into its lane, and the table dodges when adding
1 to every lane carries into no lane's top bit (see `verify_blocker`).
"""

from __future__ import annotations

import json
import math
import random
import reprlib
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import UnsupportedSizeError
from .game import MAX_DICTATOR_N, Strategy, WinningFamily, tuple_from_index, tuple_index
from .graphs import Graph, _bits, maximum_independent_sets

MAX_CSP_TABLES = 2_000_000


def k_sequence(d: int) -> int:
    """Blocker-size sequence: k(1) = 2, k(d+1) = k(d) * C(2k(d), k(d)).

    Grows as a tower; d = 4 is a number of about 6.5e7 bits and takes a long
    time to materialize, anything beyond is refused.
    """
    if not 1 <= d <= 4:
        raise UnsupportedSizeError(f"k_sequence supports 1 <= d <= 4, got {d}")
    k = 2
    for _ in range(d - 1):
        k *= math.comb(2 * k, k)
    return k


# error messages quote values through this: a deeply nested one stays short, and a
# scalar is shortened only past the 60 characters that _cut lets through
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel, _QUOTE.maxlist = 2, 8
_QUOTE.maxlong = _QUOTE.maxstring = _QUOTE.maxother = 60


def _quote(value) -> str:
    """repr(value) for an error message, abbreviated to at most 60 characters."""
    return _cut(_QUOTE.repr(value))


def _cut(text: str) -> str:
    """text itself when it is at most 60 characters long, else its first 57 and "..."."""
    return text if len(text) <= 60 else text[:57] + "..."


def parse_beta(text) -> Fraction:
    """An exact beta from "num/den" or "num"; anything else is a ValueError."""
    try:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den or 1))
    except (AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"beta must be a fraction string, got {_quote(text)}") from exc


def decrement_bound(k: int, beta) -> Fraction:
    """The guaranteed drop in success probability one blocker family buys:
    2^(-2k-2) * beta / k."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    beta = Fraction(beta)
    if not 0 < beta <= 1:
        raise ValueError(f"need 0 < beta <= 1, got {beta}")
    return beta / (k << (2 * k + 2))


@dataclass
class Blocker:
    t: int
    n: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(set(self.points)) != len(self.points):
            raise ValueError("blocker points must be distinct")
        size = 1 << self.n
        if not all(len(p) == self.t and all(0 <= c < size for c in p) for p in self.points):
            raise ValueError(
                f"blocker points must be {self.t}-tuples of integers in [0, 2^{self.n})"
            )

    @property
    def k(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Counterexample:
    """A partial strategy whose winning set avoids the tested point set.

    f1 maps each second coordinate to a 0-based hat index, f2 each first
    coordinate; unconstrained entries may be any hat (`to_strategy` names 0).
    """

    t: int
    n: int
    f1: dict[int, int]
    f2: dict[int, int]

    def to_strategy(self) -> Strategy:
        n = self.n
        if self.t == 1:
            choice = next(iter(self.f1.values()))
            return Strategy(n=n, t=1, tables=((choice,),))
        size = 1 << n
        t1 = tuple(self.f1.get(y, 0) for y in range(size))
        t2 = tuple(self.f2.get(x, 0) for x in range(size))
        return Strategy(n=n, t=2, tables=(t1, t2))


@dataclass(frozen=True)
class VerifyResult:
    is_blocker: bool
    counterexample: Counterexample | None
    tables_scanned: int


def _require_dictator(family: WinningFamily) -> None:
    if family.kind != "dictator":
        raise UnsupportedSizeError(
            f"blocker certification supports the dictator family only, got {family.kind}"
        )


def verify_blocker(blocker: Blocker, family: WinningFamily) -> VerifyResult:
    """Certify a blocker or produce an avoiding strategy as a counterexample.

    At t=2 the second player's tables g on the touched first coordinates xs
    are scanned in `product` order. Each touched second coordinate y owns a
    lane of n+1 bits. A point (x, y) is live under g when y's bit g(x) is
    black, and then x is ORed into y's lane; the first player dodges y by
    naming a hat white on every live x, a zero among the lane's low n bits.
    So a table dodges exactly when adding LOW (bit 0 of every lane) to the
    OR sets no bit of HIGH (bit n of every lane). The first dodging table is
    decoded into the counterexample, naming the lowest legal hat for each y.
    """
    _require_dictator(family)
    n = family.n
    if blocker.n != n:
        raise ValueError(f"blocker n={blocker.n} does not match family n={family.n}")
    if blocker.t == 1:
        support = 0
        for (x,) in blocker.points:
            support |= x
        if support == (1 << n) - 1:
            return VerifyResult(True, None, n)
        miss = next(i for i in range(n) if not (support >> i & 1))
        return VerifyResult(False, Counterexample(1, n, {0: miss}, {}), n)
    if blocker.t != 2:
        raise UnsupportedSizeError(f"certification supports t in (1, 2), got t={blocker.t}")

    xs = sorted({p[0] for p in blocker.points})
    ys = sorted({p[1] for p in blocker.points})
    n_tables = n ** len(xs)
    if n_tables > MAX_CSP_TABLES:
        raise UnsupportedSizeError(
            f"{n_tables} second-player tables exceed the {MAX_CSP_TABLES} budget"
        )
    shift = {y: j * (n + 1) for j, y in enumerate(ys)}
    low = sum(1 << s for s in shift.values())
    high = low << n
    # contrib[x][c]: x in the lane of every y it meets when x's hat is c
    contrib = {x: [0] * n for x in xs}
    for x, y in blocker.points:
        for c in _bits(y):
            contrib[x][c] |= x << shift[y]
    if not xs:
        return VerifyResult(False, Counterexample(2, n, {}, {}), 1)
    *head, last = [contrib[x] for x in xs]  # the last coordinate varies fastest
    for h, hats in enumerate(product(range(n), repeat=len(head))):
        base = 0
        for masks, c in zip(head, hats):
            base |= masks[c]
        for c, mask in enumerate(last):
            lanes = base | mask
            if not (lanes + low) & high:
                f1 = {}
                for y in ys:
                    u = lanes >> shift[y]  # its lowest zero bit lies in y's lane
                    f1[y] = (~u & (u + 1)).bit_length() - 1
                g_of = dict(zip(xs, hats + (c,)))
                return VerifyResult(False, Counterexample(2, n, f1, g_of), h * len(last) + c + 1)
    return VerifyResult(True, None, n_tables)


class PackedTuples(Sequence):
    """Equal-length tuples of ints stored as one flat array.

    Compares, iterates, indexes, slices and prints like the tuple of tuples
    it packs, in a fraction of the memory: a product family keeps thousands
    of its vector tuples.
    """

    def __init__(self, rows) -> None:
        rows = [tuple(r) for r in rows]
        self._len = len(rows)
        self._width = len(rows[0]) if rows else 0
        if any(len(r) != self._width for r in rows):
            raise ValueError("packed tuples must all have the same length")
        self._flat = array("Q", [v for r in rows for v in r])

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        if self._width == 0:
            return iter([()] * self._len)
        # one shared iterator, width times: zip groups the flat array into rows
        return zip(*[iter(self._flat)] * self._width)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        if not -self._len <= i < self._len:
            raise IndexError("tuple index out of range")
        start = i % self._len * self._width
        return tuple(self._flat[start : start + self._width])

    def __eq__(self, other) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, PackedTuples) else other)

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass
class BlockerFamily:
    """Disjoint equal-size blockers with the exact measure of their union.

    Small families carry their blockers explicitly. Families built as
    products of all complement pairs with kept vector tuples can be too
    large to materialize (2^(n-1) pairs times thousands of tuples), so they
    store the tuples, packed, and generate blockers on demand.
    """

    t: int
    n: int
    k: int
    beta: Fraction
    seed: int | None = None
    blockers: tuple[Blocker, ...] | None = None
    tuples: Sequence[tuple[int, ...]] | None = None
    stalled: bool = False
    certified: bool = False

    MATERIALIZE_LIMIT = 20_000

    def __post_init__(self) -> None:
        if self.tuples is not None and not isinstance(self.tuples, PackedTuples):
            self.tuples = PackedTuples(self.tuples)

    @property
    def blocker_count(self) -> int:
        if self.blockers is not None:
            return len(self.blockers)
        assert self.tuples is not None
        return (1 << (self.n - 1)) * len(self.tuples)

    def pair_list(self) -> list[tuple[int, int]]:
        full = (1 << self.n) - 1
        return [(x, full ^ x) for x in range(1 << (self.n - 1))]

    def materialize(self) -> tuple[Blocker, ...]:
        if self.blockers is None:
            if self.blocker_count > self.MATERIALIZE_LIMIT:
                raise UnsupportedSizeError(
                    f"{self.blocker_count} blockers exceed the materialization "
                    f"limit {self.MATERIALIZE_LIMIT}; keep the product form"
                )
            self.blockers = tuple(
                Blocker(t=self.t, n=self.n, points=tuple((a, y) for a in pair for y in ytuple))
                for pair in self.pair_list()
                for ytuple in self.tuples
            )
        return self.blockers


def base_blockers(n: int) -> BlockerFamily:
    """The t=1 family: every complement pair {x, xbar}. Union measure 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    full = (1 << n) - 1
    blockers = tuple(
        Blocker(t=1, n=n, points=((x,), (full ^ x,)))
        for x in range(1 << (n - 1))
    )
    return BlockerFamily(t=1, n=n, k=2, beta=Fraction(1), blockers=blockers)


PARTS = 4  # 2 * k(1)
ELL = 6  # C(4, 2) vectors per partition


def construct_blockers(
    n: int,
    seed: int,
    delta: float | Fraction = 0.15,
    stall_limit: int | None = None,
) -> BlockerFamily:
    """Randomized product construction of t=2 blockers of size k(2) = 12.

    Repeatedly draws a partition of the n coordinates into 4 nonempty parts
    (uniform labels conditioned on nonemptiness), forms the 6 vectors whose
    support is a union of two parts, and keeps the 6-tuple only when all its
    vectors avoid everything kept so far. Stops once the kept vectors cover
    a (1 - delta)/6 fraction of {0,1}^n; every product of a complement pair
    with a kept tuple is a blocker.

    A stalled run (more than `stall_limit` consecutive collisions) returns
    the partial family with `stalled` set instead of raising. A negative
    `stall_limit` is a ValueError, and so is n <= 0; a positive n outside
    [4, MAX_DICTATOR_N] raises UnsupportedSizeError before any work.
    """
    if n <= 0:
        raise ValueError(f"need n >= 1, got n={n}")
    if n < PARTS:
        raise UnsupportedSizeError(
            f"need n >= {PARTS} so the partition can have nonempty parts, got {n}"
        )
    # the limit family_from_json enforces; the coverage bitmask has 2^n bits
    if n > MAX_DICTATOR_N:
        raise UnsupportedSizeError(
            f"blocker construction supports n <= {MAX_DICTATOR_N}, got {n}"
        )
    # compared before Fraction(), which raises OverflowError on an infinite float
    if not 0 <= delta < 1:
        raise ValueError(f"need 0 <= delta < 1, got {delta}")
    delta = Fraction(delta)
    target = Fraction(1, ELL) * (1 - delta)
    size = 1 << n
    expected_tuples = max(1, math.ceil(target * size / ELL))
    if stall_limit is None:
        stall_limit = 50 * expected_tuples
    elif stall_limit < 0:
        raise ValueError(f"need stall_limit >= 0, got {stall_limit}")

    rng = random.Random(seed)
    covered = 0
    covered_count = 0
    kept: list[tuple[int, ...]] = []
    consecutive = 0
    stalled = False
    while Fraction(covered_count, size) < target:
        labels = [rng.randrange(PARTS) for _ in range(n)]
        parts = [0] * PARTS
        for coord, lab in enumerate(labels):
            parts[lab] |= 1 << coord
        if 0 in parts:
            continue  # conditioning on nonempty parts, not a collision
        ys = tuple(
            sorted(parts[a] | parts[b] for a, b in combinations(range(PARTS), 2))
        )
        if any(covered >> y & 1 for y in ys):
            consecutive += 1
            if consecutive > stall_limit:
                stalled = True
                break
            continue
        consecutive = 0
        for y in ys:
            covered |= 1 << y
        covered_count += ELL
        kept.append(ys)

    family = BlockerFamily(
        t=2,
        n=n,
        k=2 * ELL,
        beta=Fraction(covered_count, size),
        seed=seed,
        tuples=tuple(kept),
        stalled=stalled,
    )
    if family.blocker_count <= BlockerFamily.MATERIALIZE_LIMIT:
        family.materialize()
    return family


@dataclass(frozen=True)
class FamilyCertification:
    certified: bool
    blockers_covered: int
    oracle_runs: int
    failures: tuple[int, ...]  # indices of failed blockers / tuple classes


def certify_family(family: BlockerFamily, winning: WinningFamily) -> FamilyCertification:
    """Run the certification oracle over a whole family.

    Explicit families are checked blocker by blocker. Product families are
    checked per equivalence class: for a fixed vector tuple Y the refutation
    search over a complement pair {x, xbar} depends only on whether the pair
    is {0, all-ones} (then one side has no white hat at all) or not (then
    zeros(x) and zeros(xbar) are nonempty and disjoint), never on which pair
    it is, so one oracle run per (tuple, pair class) certifies every product.
    """
    _require_dictator(winning)
    if family.blockers is not None:
        runs = 0
        failures = []
        for i, b in enumerate(family.blockers):
            res = verify_blocker(b, winning)
            runs += 1
            if not res.is_blocker:
                failures.append(i)
        return FamilyCertification(not failures, len(family.blockers), runs, tuple(failures))

    assert family.tuples is not None
    n = family.n
    full = (1 << n) - 1
    generic = (1, full ^ 1)  # any pair avoiding {0, all-ones} behaves the same
    extreme = (0, full)
    runs = 0
    failures = []
    for idx, ytuple in enumerate(family.tuples):
        for pair in (generic, extreme):
            points = tuple((a, y) for a in pair for y in ytuple)
            probe = Blocker(t=2, n=n, points=points)
            res = verify_blocker(probe, winning)
            runs += 1
            if not res.is_blocker:
                failures.append(idx)
                break
    return FamilyCertification(not failures, family.blocker_count, runs, tuple(failures))


def _point_counts(family: BlockerFamily) -> tuple[int, int]:
    """(distinct, listed) points of B^t over the family's blockers.

    A product family's blockers are every complement pair times every
    tuple. The pairs partition {0,1}^n, so each y of a tuple stands for the
    2^n points (a, y), and a y listed twice, across tuples or inside one,
    lists those points twice.
    """
    if family.blockers is not None:
        rows, scale = [b.points for b in family.blockers], 0
    else:
        rows, scale = family.tuples, family.n
    return len({p for row in rows for p in row}) << scale, sum(map(len, rows)) << scale


def check_pairwise_disjoint(family: BlockerFamily) -> bool:
    """Exact check that no point lies in two of the family's blockers."""
    distinct, listed = _point_counts(family)
    return distinct == listed


def union_measure(family: BlockerFamily) -> Fraction:
    """Recompute beta by exact union counting."""
    return Fraction(_point_counts(family)[0], 1 << (family.n * family.t))


# --- serialization ----------------------------------------------------------


def family_to_json(family: BlockerFamily) -> str:
    doc: dict = {
        "t": family.t,
        "n": family.n,
        "k": family.k,
        "beta": f"{family.beta.numerator}/{family.beta.denominator}",
        "seed": family.seed,
        "certified": family.certified,
        "stalled": family.stalled,
    }
    if family.blockers is not None:
        doc["blockers"] = [[tuple_index(p, family.n) for p in b.points] for b in family.blockers]
    else:
        assert family.tuples is not None
        doc["product"] = {
            "base": "complement-pairs",
            "tuples": [list(tp) for tp in family.tuples],
        }
        doc["blocker_count"] = family.blocker_count
    return json.dumps(doc, sort_keys=True)


def _index_list(value, bits: int, what: str) -> list[int]:
    """A JSON list of integers in [0, 2^bits); a ValueError names the first bad entry."""
    need = f"{what} must be a list of integers in [0, 2^{bits})"
    if not isinstance(value, list):
        raise ValueError(f"{need}, got {_quote(value)}")
    for pos, i in enumerate(value):
        if not (type(i) is int and 0 <= i and i.bit_length() <= bits):
            raise ValueError(f"{need}, but entry {pos} of {len(value)} is {_quote(i)}")
    return value


def family_from_json(text: str) -> BlockerFamily:
    """Inverse of family_to_json; a malformed document, one nested too deeply
    to decode, one that holds both blockers and product, blockers that share
    a point, or a beta that is not the union measure of its blockers, raises
    ValueError."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("the blocker family JSON is nested too deeply to decode") from None
    if not isinstance(doc, dict):
        raise ValueError("a blocker family document must be a JSON object")
    missing = [key for key in ("t", "n", "k", "beta") if key not in doc]
    if "blockers" not in doc and "product" not in doc:
        missing.append("blockers or product")
    if missing:
        raise ValueError(f"blocker family JSON lacks {', '.join(missing)}")
    if "blockers" in doc and "product" in doc:
        raise ValueError("a blocker family document holds blockers or product, not both")
    t, n, k = doc["t"], doc["n"], doc["k"]
    if not all(type(v) is int and v >= 1 for v in (t, n, k)):
        raise ValueError(
            f"t, n and k must be positive integers, got {_quote(t)}, {_quote(n)}, {_quote(k)}"
        )
    if t > 2 or n > MAX_DICTATOR_N:
        # the only families built and certified here; also bounds decoding cost
        raise ValueError(
            f"need t <= 2 and n <= {MAX_DICTATOR_N}, got t={_quote(t)}, n={_quote(n)}"
        )
    beta = parse_beta(doc["beta"])
    seed = doc.get("seed")
    stalled, certified = doc.get("stalled", False), doc.get("certified", False)
    if not (seed is None or type(seed) is int) or not all(
        type(flag) is bool for flag in (stalled, certified)
    ):
        raise ValueError("seed must be an integer or null, stalled and certified booleans")
    blockers = tuples = None
    if "blockers" in doc:
        if not isinstance(doc["blockers"], list):
            raise ValueError("blockers must be a list of point-index lists")
        blockers = []
        for flat in doc["blockers"]:
            if len(_index_list(flat, n * t, "a blocker")) != k:
                raise ValueError(f"a blocker has {len(flat)} points, expected k={_cut(str(k))}")
            points = tuple(tuple_from_index(i, n, t) for i in flat)
            blockers.append(Blocker(t=t, n=n, points=points))
        blockers = tuple(blockers)
    else:
        tuples = doc["product"].get("tuples") if isinstance(doc["product"], dict) else None
        if t != 2 or not isinstance(tuples, list):
            raise ValueError("a product family needs t=2 and a list of product tuples")
        base = doc["product"].get("base")
        if base != "complement-pairs":
            # the only base family_to_json writes, and the one the tuples are read over
            raise ValueError(
                f"a product family's base must be 'complement-pairs', got {_quote(base)}"
            )
        for tp in tuples:
            _index_list(tp, n, "a product tuple")
            # a repeated point would give each product blocker more than k points
            if 2 * len(tp) != k or len(set(tp)) != len(tp):
                raise ValueError(
                    f"a product tuple must hold {_cut(str(k))}/2 distinct points, got {_quote(tp)}"
                )
    family = BlockerFamily(
        t=t, n=n, k=k, beta=beta, seed=seed, blockers=blockers, tuples=tuples,
        stalled=stalled, certified=certified,
    )
    distinct, listed = _point_counts(family)
    if distinct != listed:
        raise ValueError("the blockers are not pairwise disjoint: a point lies in two of them")
    measure = Fraction(distinct, 1 << (n * t))
    if measure != beta:
        raise ValueError(f"beta {_cut(str(beta))} does not match the union measure {measure}")
    return family


# --- graph blockers ---------------------------------------------------------


def min_graph_blocker(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Smallest vertex set meeting every maximum independent set.

    Exact, by increasing-size search over hitting sets of all maximum
    independent sets (at most graphs.MAX_LISTED_SETS). A graph whose every
    vertex has a self-loop is a ValueError: no vertex set meets its one,
    empty, maximum independent set.
    """
    sets = maximum_independent_sets(g)
    if sets == [0]:
        raise ValueError(f"no vertex set meets the empty maximum independent set of {g.label}")

    def extend(chosen: int, remaining: int) -> int | None:
        first_unhit = None
        for s in sets:
            if s & chosen == 0:
                first_unhit = s
                break
        if first_unhit is None:
            return chosen
        if remaining == 0:
            return None
        m = first_unhit
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            got = extend(chosen | (1 << v), remaining - 1)
            if got is not None:
                return got
        return None

    # every set is nonempty, so one vertex per set hits them all: k <= len(sets)
    k = 0
    try:
        while (got := extend(0, k)) is None:
            k += 1
    finally:
        del extend
    return got.bit_count(), tuple(_bits(got))
