"""Ground set, winning families, strategies and exact winning-set measures.

Conventions used throughout the package:

* A point of B = {0,1}^n is an int in [0, 2^n); coordinate i (1-based) is
  bit i-1, so "the point 110" (coordinates 1 and 2 set) is the int 0b011 = 3.
* A subset of B is an int bitmask over 2^n points: bit p is set iff point p
  is a member.
* A subset of B^t is an int bitmask over the 2^(nt) tuple indices below;
  `winning_set` returns one.
* A t-tuple (x_1, ..., x_t) flattens to a single index big-endian in player
  order: idx = x_1 * 2^(n(t-1)) + x_2 * 2^(n(t-2)) + ... + x_t.
* Family members are sorted ascending by bitmask, so indices are portable
  across runs and machines.

All measures are exact `fractions.Fraction` values with power-of-two
denominators; no floats appear anywhere in this module.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import MalformedStrategyError, UnsupportedSizeError, _quote
from .graphs import kneser, maximum_independent_sets

FAMILY_KINDS = ("dictator", "intersecting", "monotone")

MAX_DICTATOR_N = 16
MAX_ENUMERATED_N = 4  # exhaustive enumeration budget for non-dictator kinds


def tuple_index(points: tuple[int, ...], n: int) -> int:
    """Flatten a tuple of points into a single big-endian index."""
    idx = 0
    for x in points:
        idx = (idx << n) | x
    return idx


def tuple_from_index(idx: int, n: int, t: int) -> tuple[int, ...]:
    """Inverse of tuple_index."""
    mask = (1 << n) - 1
    out = [0] * t
    for i in range(t - 1, -1, -1):
        out[i] = idx & mask
        idx >>= n
    return tuple(out)


def stream_rng(seed: int, index: int) -> random.Random:
    """Counter-based stream: draw `index` of run `seed`, order-independent."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass(frozen=True)
class WinningFamily:
    """A first-level family of winning sets over {0,1}^n.

    `sets` holds one bitmask per member, sorted ascending, so an index into
    `sets` is a stable name for that member.
    """

    kind: str
    n: int
    sets: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.sets)

    def member_measure(self, i: int) -> Fraction:
        return Fraction(self.sets[i].bit_count(), 1 << self.n)

    def indices_containing(self, point: int) -> tuple[int, ...]:
        """All member indices whose set contains `point`."""
        return tuple(i for i, w in enumerate(self.sets) if w >> point & 1)


def _dictator_sets(n: int) -> list[int]:
    # member i holds the points with bit i set: written high point first,
    # runs of 2^i ones and 2^i zeros
    return [
        int(("1" * (1 << i) + "0" * (1 << i)) * (1 << n >> (i + 1)), 2) for i in range(n)
    ]


def _balanced_monotone_sets(n: int) -> list[int]:
    # s is an up-set iff, for each coordinate b, shifting its points with bit
    # b clear (s & ~dictator b) up by 2^b sets that bit and stays inside s
    half = 1 << (n - 1)
    dictators = list(enumerate(_dictator_sets(n)))
    return [
        s
        for s in range(1 << (1 << n))
        if s.bit_count() == half and not any((s & ~d) << (1 << b) & ~s for b, d in dictators)
    ]


@lru_cache(maxsize=None)
def enumerate_family(kind: str, n: int) -> WinningFamily:
    """All winning sets of one kind, deterministically ordered.

    dictator: n up to 16. intersecting / monotone: n up to 4. The maximal
    intersecting families are the maximum independent sets of the
    disjointness graph `kneser(n)`, whose self-looped all-zero point is in
    none of them. That is exact: a maximal one holds the all-ones point,
    which meets every member, and exactly one point of each other
    complementary pair {x, ~x} (both are disjoint; with neither, maximality
    gives a member inside ~x and one inside x, which are disjoint), so it
    has 2^(n-1) members, the independence number of `kneser(n)`. The
    balanced monotone sets are found by exhaustive enumeration.
    """
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {_quote(kind)}; expected one of {FAMILY_KINDS}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={_quote(n)}")
    if kind == "dictator":
        if n > MAX_DICTATOR_N:
            raise UnsupportedSizeError(
                f"dictator families support n <= {MAX_DICTATOR_N}, got n={_quote(n)}"
            )
        sets = _dictator_sets(n)
    elif n > MAX_ENUMERATED_N:
        raise UnsupportedSizeError(
            f"{kind} families are enumerated exhaustively only for "
            f"n <= {MAX_ENUMERATED_N}, got n={_quote(n)}"
        )
    elif kind == "intersecting":
        sets = maximum_independent_sets(kneser(n))
    else:
        sets = _balanced_monotone_sets(n)
    return WinningFamily(kind=kind, n=n, sets=tuple(sorted(sets)))


@dataclass(frozen=True)
class Strategy:
    """Lookup tables, one per player, mapping visible tuples to family indices.

    Player i's table has 2^(n(t-1)) entries indexed by the flattened visible
    tuple x^{-i} (player order preserved, big-endian).
    """

    n: int
    t: int
    tables: tuple[tuple[int, ...], ...]

    def validate(self, family: WinningFamily) -> None:
        if family.n != self.n:
            raise MalformedStrategyError(
                f"strategy n={_quote(self.n)} does not match family n={family.n}"
            )
        if len(self.tables) != self.t:
            raise MalformedStrategyError(
                f"expected {_quote(self.t)} tables, got {len(self.tables)}"
            )
        want, r = 1 << (self.n * (self.t - 1)), family.r
        for i, table in enumerate(self.tables):
            if len(table) != want:
                raise MalformedStrategyError(
                    f"player {i} table has {len(table)} entries, expected {want}"
                )
            for e in table:
                # 0.0 and False compare like indices but are none
                if not (type(e) is int and 0 <= e < r):
                    raise MalformedStrategyError(
                        f"player {i} table entry {_quote(e)} outside family index range "
                        f"[0, {r})"
                    )


def constant_strategy(family: WinningFamily, t: int, index: int = 0) -> Strategy:
    entries = 1 << (family.n * (t - 1))
    table = (index,) * entries
    return Strategy(n=family.n, t=t, tables=(table,) * t)


def random_strategy(family: WinningFamily, t: int, rng: random.Random) -> Strategy:
    entries = 1 << (family.n * (t - 1))
    tables = tuple(
        tuple(rng.randrange(family.r) for _ in range(entries)) for _ in range(t)
    )
    return Strategy(n=family.n, t=t, tables=tables)


def winning_set(strategy: Strategy, family: WinningFamily) -> int:
    """The set of tuples on which every player names a set containing her point.

    Returned as a bitmask over tuple indices: bit idx is set iff the tuple
    with index idx is won.

    Each player gets one byte per tuple: player i's coordinate x_i is bits
    s..s+n-1 of the tuple index (s = n*(t-1-i)), so the tuples that entry
    `vis` of her table decides are one extended slice with step 2^s, filled
    with the digits of the named member (byte x is b"1" iff x is in it).
    ASCII "0" and "1" differ only in their low bit, so the bytewise AND of
    the players' digit strings is the digit string of the winning set.
    """
    strategy.validate(family)
    n, t = strategy.n, strategy.t
    size, total = 1 << n, 1 << (n * t)
    digits = {
        m: f"{family.sets[m]:0{size}b}"[::-1].encode()
        for m in set().union(*strategy.tables)
    }
    both = -1
    for i, table in enumerate(strategy.tables):
        s = n * (t - 1 - i)
        low, step, span = (1 << s) - 1, 1 << s, size << s
        arr = bytearray(total)
        for vis, m in enumerate(table):
            base = (vis >> s) << (s + n) | (vis & low)
            arr[base : base + span : step] = digits[m]
        both &= int.from_bytes(arr, "little")
    # written back big-endian, tuple 0 is the last digit: the lowest bit
    return int(both.to_bytes(total, "big"), 2)


def success_probability(strategy: Strategy, family: WinningFamily) -> Fraction:
    """Exact winning probability of one strategy: the uniform measure of its winning set."""
    return Fraction(winning_set(strategy, family).bit_count(), 1 << (strategy.n * strategy.t))
