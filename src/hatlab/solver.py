"""Exact and heuristic optimization of the game's success probability.

One exact engine serves t=2 and t=3: a bounded depth-first walk over the last
player's table in product order. For each point x_t the other players answer
with the best winning set of the (t-1)-player game, which collapses the t=2
search space from r^(2*2^n) to r^(2^n). Local search is a separate, heuristic
lower bound.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import and_

from .errors import MalformedPartitionError, UnsupportedSizeError
from .game import (
    Strategy,
    WinningFamily,
    constant_strategy,
    enumerate_family,
    stream_rng,
    success_probability,
    tuple_from_index,
    visible_index,
    winning_set,
)

MAX_LAST_PLAYER_TABLES = 70_000
# allow_slow budget: the 4^16 tables of the t=2, n=4 dictator kind walk in
# about half a minute; the intersecting kind's 12^16 ran 300 s without finishing
MAX_SLOW_LAST_PLAYER_TABLES = 4**16
MAX_TABLE_INPUT_BITS = 16
MAX_EVAL_BITS = 20


@dataclass(frozen=True)
class SolveResult:
    value: Fraction
    witness: Strategy
    method: str
    work: int


@dataclass(frozen=True)
class PartitionView:
    """The partition of player 1's space induced by a fixed player-2 table.

    cells[i] is the bitmask of points x with f_2(x) = i.
    """

    n: int
    cells: tuple[int, ...]

    def validate(self) -> None:
        full = (1 << (1 << self.n)) - 1
        seen = 0
        for c in self.cells:
            if c & seen:
                raise MalformedPartitionError("partition cells overlap")
            seen |= c
        if seen != full:
            raise MalformedPartitionError("partition cells do not cover the ground set")


def partition_from_table(table: tuple[int, ...], r: int, n: int) -> PartitionView:
    cells = [0] * r
    for x, i in enumerate(table):
        cells[i] |= 1 << x
    return PartitionView(n=n, cells=tuple(cells))


class _Argmax(dict):
    """Memoised best mask against a union: best[u] = (max popcount(w & u), its lowest index)."""

    def __init__(self, masks: tuple[int, ...] | list[int]) -> None:
        super().__init__()
        self.masks = masks

    def __missing__(self, u: int) -> tuple[int, int]:
        b, bi = -1, 0
        for i, w in enumerate(self.masks):
            c = (w & u).bit_count()
            if c > b:
                b, bi = c, i
        hit = self[u] = (b, bi)
        return hit


def _best_response(
    cells: tuple[int, ...] | list[int], members: list[tuple[int, ...]], best: _Argmax
) -> tuple[int, list[int]]:
    """Pointwise-optimal response to the last player's cells.

    For each point x the last player wins exactly on the union of the cells of
    the members containing x (members[x]). Returns the summed best counts and
    the picked mask index per x.
    """
    total = 0
    picks = []
    for mem in members:
        u = 0
        for i in mem:
            u |= cells[i]
        c, bi = best[u]
        total += c
        picks.append(bi)
    return total, picks


def _score_table(masks: tuple[int, ...] | list[int], entries: int) -> bytes:
    """F[u] = max over masks w of |w & u|, for every u < 2^entries, one byte each.

    The table lives in one int, one byte lane per subset u. Per mask, adding
    entry bit e appends the block of subsets that contain e: a copy of the
    lanes so far, each raised by 1 if w holds e. A lane-wise max folds each
    mask's lanes into the table. Every lane holds a value <= entries <= 16
    < 128, so (lane | 0x80) - lane never borrows from the next lane.
    """
    size = 1 << entries
    ones = [int.from_bytes(b"\x01" * (1 << e), "little") for e in range(entries)]
    high = int.from_bytes(b"\x80" * size, "little")
    top = 0
    for w in masks:
        c = 0  # lane u holds |w & u|, for the u below 2^e
        for e in range(entries):
            c |= (c + ones[e] if w >> e & 1 else c) << (8 << e)
        # 0xff in the lanes where top >= c, 0 elsewhere
        keep = ((((top | high) - c) & high) >> 7) * 0xFF
        top = top & keep | c & ~keep
    return top.to_bytes(size, "little")


def _scan_last_player(
    r: int, entries: int, members: list[tuple[int, ...]], best: _Argmax
) -> tuple[int, tuple[int, ...]]:
    """The first last-player table, in product order, with the best best-response total.

    A depth-first walk over the table's entries keeps one union u[x] per point
    (the entries whose member contains x) and cuts a subtree on the budget
    bound of `_descend`. Cuts are strict, so the first optimum in product
    order survives. The walk reads a point's score from a table of f(u) over
    all unions u (`_score_table`). Returns (total, table).
    """
    holders = [[x for x, mem in enumerate(members) if i in mem] for i in range(r)]
    # a mask inside another never scores more, so the walk scores maximal masks only
    masks = best.masks
    score = _score_table(
        [w for w in masks if not any(w != v and w | v == v for v in masks)], entries
    )
    hmax = max(map(len, holders))
    state = [-1, None]
    _descend(0, [0] * len(members), 0, [0] * entries, holders, hmax, score, state)
    return state[0], state[1]


def _descend(
    e: int, u: list[int], total: int, table: list[int],
    holders: list[list[int]], hmax: int, score: bytes, state: list,
) -> None:
    """Try each member at entry e of `table`; state is [incumbent, its table].

    `total` is the score of entries 0..e-1: the sum over points of
    f(u[x]) = max_w |w & u[x]| = score[u[x]]. f is monotone and rises by at
    most 1 when u[x] gains one entry. Setting entry e to member i raises only
    the points of holders[i], by up[x], and each later entry raises at most
    hmax points, so a child scores at most its own total plus hmax per entry
    after e (the budget bound). A child is cut when that bound is <= the
    incumbent; at the last entry the bound is its exact total.
    """
    bit = 1 << e
    budget = (len(table) - e - 1) * hmax
    last = e + 1 == len(table)
    up = [score[v | bit] - score[v] for v in u]
    for i, xs in enumerate(holders):
        child_total = total + sum(map(up.__getitem__, xs))
        if child_total + budget <= state[0]:
            continue
        table[e] = i
        if last:
            state[0], state[1] = child_total, tuple(table)
            continue
        for x in xs:
            u[x] |= bit
        _descend(e + 1, u, child_total, table, holders, hmax, score, state)
        for x in xs:
            u[x] ^= bit


def best_response_value(partition: PartitionView, family: WinningFamily) -> Fraction:
    """Expected optimal-response success for a fixed player-2 partition (t=2)."""
    if partition.n != family.n:
        raise MalformedPartitionError(
            f"partition n={partition.n} does not match family n={family.n}"
        )
    if len(partition.cells) != family.r:
        raise MalformedPartitionError(
            f"partition has {len(partition.cells)} cells, family has r={family.r}"
        )
    partition.validate()
    members = [family.indices_containing(x) for x in range(1 << family.n)]
    total, _ = _best_response(partition.cells, members, _Argmax(family.sets))
    return Fraction(total, 1 << (2 * family.n))


def _exact_p1(family: WinningFamily) -> SolveResult:
    best, best_i = _Argmax(family.sets)[(1 << (1 << family.n)) - 1]
    return SolveResult(
        value=Fraction(best, 1 << family.n),
        witness=constant_strategy(family, 1, best_i),
        method="exhaustive",
        work=family.r,
    )


def _exact_forced(family: WinningFamily, t: int) -> SolveResult:
    # r = 1: a unique strategy exists; evaluate it directly.
    witness = constant_strategy(family, t, 0)
    return SolveResult(
        value=success_probability(witness, family),
        witness=witness,
        method="exhaustive",
        work=1,
    )


def _exact_last_player(family: WinningFamily, t: int) -> SolveResult:
    """Exact t=2 or t=3 optimum by enumerating the last player's table.

    For each x_t the other players answer with the best distinct winning set
    of the (t-1)-player game, ties to the smallest mask; each set keeps its
    first strategy in product order, which rebuilds players 1..t-1.
    """
    n, r = family.n, family.r
    entries = 1 << (n * (t - 1))
    reps: dict[int, tuple[tuple[int, ...], ...]] = {}
    for tables in product(product(range(r), repeat=entries >> n), repeat=t - 1):
        inner = Strategy(n=n, t=t - 1, tables=tables)
        reps.setdefault(winning_set(inner, family).bits, tables)
    wins = sorted(reps)
    members = [family.indices_containing(x) for x in range(1 << n)]
    best = _Argmax(wins)
    total, table = _scan_last_player(r, entries, members, best)
    cells = partition_from_table(table, r, n * (t - 1)).cells
    rebuilt = [[0] * entries for _ in range(t - 1)]
    for xt, wi in enumerate(_best_response(cells, members, best)[1]):
        for j, inner_table in enumerate(reps[wins[wi]]):
            for seen, choice in enumerate(inner_table):
                rebuilt[j][seen << n | xt] = choice
    witness = Strategy(n=n, t=t, tables=(*map(tuple, rebuilt), table))
    value = Fraction(total, 1 << (t * n))
    check = success_probability(witness, family)
    if check != value:
        raise AssertionError(
            f"t={t} witness re-evaluates to {check}, engine claimed {value}"
        )
    return SolveResult(
        value=value, witness=witness, method="best-response-exact", work=r ** entries
    )


def exact_p(
    t: int,
    n: int,
    kind: str = "dictator",
    *,
    allow_slow: bool = False,
    threads: int = 1,
) -> SolveResult:
    """Exact optimum success probability with an optimal witness strategy.

    Supported budgets: t=1 (any enumerable family); n=1 (any t up to 20);
    t=2 and t=3 through one bounded last-player walk over r^(2^(n(t-1)))
    tables. Up to 70000 tables it runs freely (t=2, n <= 3 for the three
    standard kinds); t=3 (n=2) and t=2 spaces of up to 4^16 tables (the n=4
    dictator kind, about 30 s) run behind allow_slow. Larger t=2 spaces,
    such as the n=4 intersecting and monotone kinds, raise
    UnsupportedSizeError. Within these budgets the last player's table has
    at most 16 entries, so the walk's score table (one byte per union of
    entries) is at most 64 KiB. `threads` has no effect; it stays while
    `perfbench/workloads.py` passes it.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got t={t}")
    family = enumerate_family(kind, n)
    if t == 1:
        return _exact_p1(family)
    if n == 1:
        if t > 20:
            raise UnsupportedSizeError(f"n=1 games support t <= 20, got t={t}")
        return _exact_forced(family, t)
    if t == 2 or (t == 3 and n == 2):
        if t == 3 and not allow_slow:
            raise UnsupportedSizeError(
                "t=3 exact solving is gated behind allow_slow=True "
                "(the CLI flag --allow-slow)"
            )
        n_tables = family.r ** (1 << (n * (t - 1)))
        if n_tables <= MAX_LAST_PLAYER_TABLES or (
            allow_slow and n_tables <= MAX_SLOW_LAST_PLAYER_TABLES
        ):
            return _exact_last_player(family, t)
        if n_tables > MAX_SLOW_LAST_PLAYER_TABLES:
            raise UnsupportedSizeError(
                f"t={t} exact solving enumerates {n_tables} tables for (n={n}, {kind}), "
                f"over the allow_slow budget of {MAX_SLOW_LAST_PLAYER_TABLES}; no exact "
                "engine reaches it yet (an MIS bound on the Kneser power is the planned "
                "route); use local_search_p"
            )
        raise UnsupportedSizeError(
            f"t={t} exact solving enumerates {n_tables} tables for (n={n}, {kind}), "
            f"over the {MAX_LAST_PLAYER_TABLES} budget; pass allow_slow=True "
            f"(the CLI flag --allow-slow; up to {MAX_SLOW_LAST_PLAYER_TABLES} tables) "
            "or use local_search_p"
        )
    raise UnsupportedSizeError(
        f"exact_p has no engine for (t={t}, n={n}, {kind}); use local_search_p"
    )


class _Points(dict):
    """Memoised bit positions of a mask: points[w] lists the points of w."""

    def __missing__(self, w: int) -> list[int]:
        hit = self[w] = [y for y in range(w.bit_length()) if w >> y & 1]
        return hit


def _links(t: int, n: int) -> list[list[tuple[tuple[int, int, int, int], ...]]]:
    """links[i][vis]: for each other player k, (k, k's visible index with x_i = 0,
    the shift of x_i inside it, the bit of x_k). That is where entry (i, vis)
    sits in player i's columns over x_k."""
    links = []
    for i in range(t):
        row = []
        for vis in range(1 << (n * (t - 1))):
            seen = tuple_from_index(vis, n, t - 1)
            xs = seen[:i] + (0,) + seen[i:]
            row.append(tuple(
                (k, visible_index(xs, k, n), n * (t - 2 - i + (i > k)), 1 << xs[k])
                for k in range(t) if k != i
            ))
        links.append(row)
    return links


def _flip(cols: list, link: tuple, ys: list[int]) -> None:
    """Toggle one entry's member points ys in its player's columns (see _links)."""
    for k, base, shift, bit in link:
        col = cols[k]
        for y in ys:
            col[base | y << shift] ^= bit


def _columns(tables: list[list[int]], links: list, sets: tuple[int, ...], points: _Points) -> list:
    """cols[j][i][vis]: the mask of the x_i for which x_j (read from player i's
    view vis) lies in the member that player j names at that tuple.

    Every mask is 0 for tables that name no member, so flipping in each
    entry's member builds them.
    """
    t, entries = len(tables), len(tables[0])
    cols = [[[0] * entries if k != j else None for k in range(t)] for j in range(t)]
    for j, table in enumerate(tables):
        for link, m in zip(links[j], table):
            _flip(cols[j], link, points[sets[m]])
    return cols


def _sweeps(
    tables: list[list[int]], cols: list, links: list,
    sets: tuple[int, ...], best: _Argmax, points: _Points,
) -> Iterator[tuple[bool, int]]:
    """Best-response sweeps over the players in order, updating tables and cols in place.

    Yields after each sweep whether it changed an entry, and the last player's
    best-response total in it.
    """
    while True:
        changed = False
        for i, table in enumerate(tables):
            # player i's moves flip only player i's columns, so the masks over
            # x_i stay fixed for the whole of player i's pass
            into = [cols[j][i] for j in range(len(tables)) if j != i]
            consistent = into[0]
            for col in into[1:]:
                consistent = list(map(and_, consistent, col))
            wins = 0
            for vis, u in enumerate(consistent):
                c, b = best[u]
                wins += c
                a = table[vis]
                if a != b:
                    table[vis] = b
                    changed = True
                    _flip(cols[i], links[i][vis], points[sets[a] ^ sets[b]])
        yield changed, wins


def local_search_p(
    t: int,
    n: int,
    kind: str = "dictator",
    seed: int = 0,
    restarts: int = 32,
    *,
    threads: int = 1,
) -> SolveResult:
    """Best-response coordinate ascent from random tables.

    Lower-bound certificate generator: the returned value is the exact
    success probability of the returned witness, never an estimate.
    Deterministic for a fixed seed. `threads` has no effect; it stays while
    `perfbench/workloads.py` passes it.

    Each restart draws random tables, then sweeps the players in order and
    sets every entry (i, vis) to the best response to the others' current
    tables (ties to the lowest member index) until a sweep changes nothing.
    The sweeps read column masks: for each ordered pair of players (j, i),
    cols[j][i][vis] is the 2^n-bit mask of the x_i for which x_j (read from
    vis) lies in the member that player j names at that tuple. An entry's
    consistent points are the AND of t-1 such masks. A change from member a
    to member b flips bit x_k of player i's columns for each other player k
    and each point of sets[a] ^ sets[b]. A restart's win count is the last
    player's best-response total in the sweep that changed nothing, and
    `success_probability` re-checks the returned witness once against it.
    """
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    if t < 1:
        raise ValueError(f"need t >= 1, got t={t}")
    if t == 1:
        raise UnsupportedSizeError("local search needs t >= 2; t=1 is exact anyway")
    if n * (t - 1) > MAX_TABLE_INPUT_BITS:
        raise UnsupportedSizeError(
            f"table input space 2^{n * (t - 1)} exceeds 2^{MAX_TABLE_INPUT_BITS}"
        )
    if n * t > MAX_EVAL_BITS:
        raise UnsupportedSizeError(
            f"tuple space 2^{n * t} exceeds the 2^{MAX_EVAL_BITS} evaluation budget"
        )
    family = enumerate_family(kind, n)
    entries = 1 << (n * (t - 1))
    sets = family.sets
    best = _Argmax(sets)
    points = _Points()
    links = _links(t, n)

    def ascend(restart: int) -> tuple[int, list[list[int]], int]:
        rng = stream_rng(seed, restart)
        tables = [
            [rng.randrange(family.r) for _ in range(entries)] for _ in range(t)
        ]
        cols = _columns(tables, links, sets, points)
        sweeps = _sweeps(tables, cols, links, sets, best, points)
        for count, (changed, wins) in enumerate(sweeps, 1):
            if not changed:
                return wins, tables, count

    results = [ascend(restart) for restart in range(restarts)]
    wins, tables, _ = max(results, key=lambda res: res[0])  # the first best
    witness = Strategy(n=n, t=t, tables=tuple(map(tuple, tables)))
    value = Fraction(wins, 1 << (n * t))
    check = success_probability(witness, family)
    if check != value:
        raise AssertionError(
            f"local search witness re-evaluates to {check}, the ascent counted {value}"
        )
    return SolveResult(
        value=value,
        witness=witness,
        method="local-search",
        work=sum(r[2] for r in results),
    )


def dominance_chain(
    t: int, n: int, *, allow_slow: bool = False
) -> tuple[Fraction, Fraction, Fraction]:
    """(p_dict, p_intersecting, p_monotone) at (t, n), checked non-decreasing."""
    p_dict = exact_p(t, n, "dictator", allow_slow=allow_slow).value
    p_int = exact_p(t, n, "intersecting", allow_slow=allow_slow).value
    p_mono = exact_p(t, n, "monotone", allow_slow=allow_slow).value
    if not p_dict <= p_int <= p_mono:
        raise RuntimeError(
            f"dominance chain violated at (t={t}, n={n}): "
            f"dict={p_dict}, intersecting={p_int}, monotone={p_mono}"
        )
    return p_dict, p_int, p_mono
