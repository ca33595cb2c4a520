"""Exact and heuristic optimization of the game's success probability.

One exact engine serves t=2 and t=3: a bounded depth-first walk over the last
player's table in product order. For each point x_t the other players answer
with the best winning set of the (t-1)-player game, which collapses the t=2
search space from r^(2*2^n) to r^(2^n). Local search is a separate, heuristic
lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import MalformedStrategyError, UnsupportedSizeError, _quote
from .game import (
    Strategy,
    WinningFamily,
    constant_strategy,
    enumerate_family,
    random_strategy,
    stream_rng,
    success_probability,
    winning_set,
)

MAX_LAST_PLAYER_TABLES = 70_000
# allow_slow budget: the 4^16 tables of the t=2, n=4 dictator kind walk in
# about 17 s; the intersecting kind's 12^16 ran 300 s without finishing
MAX_SLOW_LAST_PLAYER_TABLES = 4**16
MAX_TABLE_INPUT_BITS = 16
MAX_EVAL_BITS = 20


@dataclass(frozen=True)
class SolveResult:
    value: Fraction
    witness: Strategy
    method: str
    work: int


def _rechecked(
    witness: Strategy, family: WinningFamily, wins: int, method: str, work: int
) -> SolveResult:
    """The result of value wins / 2^(n t), once the witness re-evaluates to it."""
    value = Fraction(wins, 1 << (family.n * witness.t))
    check = success_probability(witness, family)
    if check != value:
        raise AssertionError(f"{method} witness re-evaluates to {check}, counted {value}")
    return SolveResult(value=value, witness=witness, method=method, work=work)


class _Argmax(dict):
    """Memoised best mask against a union: best[u] = (max popcount(w & u), its lowest index).

    The memo is cleared when it holds CAP entries, so a long local search
    keeps at most CAP unions (one restart at (4,5) meets 481,435).
    """

    CAP = 1 << 16

    def __init__(self, masks: tuple[int, ...] | list[int]) -> None:
        super().__init__()
        self.masks = masks

    def __missing__(self, u: int) -> tuple[int, int]:
        if len(self) >= self.CAP:
            self.clear()
        b, bi = -1, 0
        for i, w in enumerate(self.masks):
            c = (w & u).bit_count()
            if c > b:
                b, bi = c, i
        hit = self[u] = (b, bi)
        return hit


def _best_response(
    table: tuple[int, ...], r: int, members: list[tuple[int, ...]], best: _Argmax
) -> tuple[int, list[int]]:
    """Pointwise-optimal response to the last player's table.

    cells[i] holds the entries of `table` that name member i. For each point x
    the last player wins exactly on the union of the cells of the members
    containing x (members[x]). Returns the summed best counts and the picked
    mask index per x.
    """
    cells = [0] * r
    for e, i in enumerate(table):
        cells[i] |= 1 << e
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
    r: int, entries: int, members: list[tuple[int, ...]], wins: list[int]
) -> tuple[int, tuple[int, ...], int]:
    """The first last-player table, in product order, with the best best-response total.

    One recursive `node(e, total)` tries each member at entry e of the table.
    The walk keeps one union u[x] per point (the entries whose member contains
    x); `total` is the score of entries 0..e-1, the sum over points of
    f(u[x]) = max_w |w & u[x]| = score[u[x]], read from a table of f over all
    unions (`_score_table`). f is monotone and rises by at most 1 when u[x]
    gains one entry. Setting entry e to member i raises only the points of
    holders[i], by up[x]. A point that every member holds gains every entry
    whatever the table, so it ends on the full union: after entry e its gain
    still to come is exactly score[full] - score[entries 0..e]. Each later
    entry raises at most hmax of the other points (the most of them one
    member holds), by at most 1 each. So a child scores at most its own
    total, plus hmax per entry after e, plus the known gain of the points in
    every member (the budget bound). A child is cut when that bound is <= the
    incumbent; at the last entry the bound is its exact total. Cuts are
    strict, so the first optimum in product order survives. Returns (total,
    table, nodes walked).
    """
    holders = [[x for x, mem in enumerate(members) if i in mem] for i in range(r)]
    # a mask inside another never scores more, so the walk scores maximal masks only
    score = _score_table(
        [w for w in wins if not any(w != v and w | v == v for v in wins)], entries
    )
    every = sum(len(mem) == r for mem in members)
    hmax = max(map(len, holders)) - every
    full = score[-1]
    u = [0] * len(members)
    table = [0] * entries
    top, top_table, nodes = -1, None, 0

    def node(e: int, total: int) -> None:
        nonlocal top, top_table, nodes
        nodes += 1
        bit = 1 << e
        budget = (entries - e - 1) * hmax + every * (full - score[2 * bit - 1])
        last = e + 1 == entries
        up = [score[v | bit] - score[v] for v in u]
        for i, xs in enumerate(holders):
            child_total = total + sum(map(up.__getitem__, xs))
            if child_total + budget <= top:
                continue
            table[e] = i
            if last:
                top, top_table = child_total, tuple(table)
                continue
            for x in xs:
                u[x] |= bit
            node(e + 1, child_total)
            for x in xs:
                u[x] ^= bit

    try:
        node(0, 0)
    finally:
        del node  # node reaches itself through this scope: break the cycle
    return top, top_table, nodes


def best_response_value(table: tuple[int, ...], family: WinningFamily) -> Fraction:
    """Player 1's best-response success against player 2's table (t=2).

    table[x] is the member player 2 names on seeing player 1's point x.
    """
    n, r = family.n, family.r
    if len(table) != 1 << n or not all(type(i) is int and 0 <= i < r for i in table):
        raise MalformedStrategyError(
            f"a player-2 table needs 2^{n} entries in [0, {r}); got {len(table)} entries"
        )
    members = [family.indices_containing(x) for x in range(1 << n)]
    total, _ = _best_response(table, r, members, _Argmax(family.sets))
    return Fraction(total, 1 << (2 * n))


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
        reps.setdefault(winning_set(inner, family), tables)
    wins = sorted(reps)
    members = [family.indices_containing(x) for x in range(1 << n)]
    total, table, _ = _scan_last_player(r, entries, members, wins)
    rebuilt = [[0] * entries for _ in range(t - 1)]
    for xt, wi in enumerate(_best_response(table, r, members, _Argmax(wins))[1]):
        for j, inner_table in enumerate(reps[wins[wi]]):
            for seen, choice in enumerate(inner_table):
                rebuilt[j][seen << n | xt] = choice
    witness = Strategy(n=n, t=t, tables=(*map(tuple, rebuilt), table))
    return _rechecked(witness, family, total, "best-response-exact", r**entries)


def exact_p(
    t: int,
    n: int,
    kind: str = "dictator",
    *,
    allow_slow: bool = False,
    threads: int = 1,
) -> SolveResult:
    """Exact optimum success probability with an optimal witness strategy.

    Supported budgets: t=1 (any enumerable family) and n=1 (any t up to
    20), where every member holds half of {0,1}^n and the constant strategy
    on member 0, which wins on (member 0)^t, is optimal; t=2 and t=3 through
    one bounded last-player walk over r^(2^(n(t-1))) tables. Up to 70000
    tables it runs freely (t=2, n <= 3 for the three standard kinds); t=3
    (n=2) and t=2 spaces of up to 4^16 tables (the n=4 dictator kind, about
    17 s) run behind allow_slow. Larger t=2 spaces, such as the n=4
    intersecting and monotone kinds, raise UnsupportedSizeError. Within
    these budgets the last player's table has at most 16 entries, so the
    walk's score table (one byte per union of entries) is at most 64 KiB.
    Every branch's value is its win count over 2^(nt), re-checked against
    the witness in `_rechecked`. `threads` has no effect; it stays while
    `perfbench/workloads.py` passes it.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got t={_quote(t)}")
    family = enumerate_family(kind, n)
    if t == 1 or n == 1:
        if t > 20:
            raise UnsupportedSizeError(f"n=1 games support t <= 20, got t={_quote(t)}")
        # every member holds half the points, so at t=1 all constant
        # strategies tie; at n=1 the one member is the only choice
        assert all(w.bit_count() == 1 << (n - 1) for w in family.sets)
        assert t == 1 or family.r == 1
        witness = constant_strategy(family, t, 0)
        wins = family.sets[0].bit_count() ** t
        return _rechecked(witness, family, wins, "exhaustive", family.r)
    if t == 2 or (t == 3 and n == 2):
        if t == 3 and not allow_slow:
            raise UnsupportedSizeError(
                "t=3 exact solving is gated behind allow_slow=True "
                "(the CLI flag --allow-slow)"
            )
        n_tables = family.r ** (1 << (n * (t - 1)))
        if n_tables <= (MAX_SLOW_LAST_PLAYER_TABLES if allow_slow else MAX_LAST_PLAYER_TABLES):
            return _exact_last_player(family, t)
        if n_tables > MAX_SLOW_LAST_PLAYER_TABLES:
            raise UnsupportedSizeError(
                f"t={t} exact solving enumerates {_quote(n_tables)} tables for (n={n}, {kind}), "
                f"over the allow_slow budget of {MAX_SLOW_LAST_PLAYER_TABLES}; no exact "
                "engine reaches it yet (an MIS bound on the Kneser power is the planned "
                "route); use local_search_p"
            )
        raise UnsupportedSizeError(
            f"t={t} exact solving enumerates {_quote(n_tables)} tables for (n={n}, {kind}), "
            f"over the {MAX_LAST_PLAYER_TABLES} budget; pass allow_slow=True "
            f"(the CLI flag --allow-slow; up to {MAX_SLOW_LAST_PLAYER_TABLES} tables) "
            "or use local_search_p"
        )
    raise UnsupportedSizeError(
        f"exact_p has no engine for (t={_quote(t)}, n={n}, {kind}); use local_search_p"
    )


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

    Each restart draws random tables (`random_strategy`), then sweeps the
    players in order and sets every entry (i, vis) to the best response to
    the others' current tables (ties to the lowest member index) until a
    sweep changes nothing. Each player keeps one ASCII digit per tuple of
    B^t: entry vis of player i owns the tuples base + x * 2^(n(t-1-i)),
    x < 2^n, and holds there the digits of the member it names (digit x is
    1 iff x is in it). At the start of player i's pass the others' digit
    strings are ANDed once, as ints; an entry's consistent points are the
    2^n digits of its own tuples in that AND. A changed entry rewrites only
    its own tuples. A restart's win count is the last player's
    best-response total in the sweep that changed nothing, and
    `success_probability` re-checks the returned witness once against it.
    """
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {_quote(restarts)}")
    if t < 1:
        raise ValueError(f"need t >= 1, got t={_quote(t)}")
    if t == 1:
        raise UnsupportedSizeError("local search needs t >= 2; t=1 is exact anyway")
    if n * (t - 1) > MAX_TABLE_INPUT_BITS:
        raise UnsupportedSizeError(
            f"table input space 2^{_quote(n * (t - 1))} exceeds 2^{MAX_TABLE_INPUT_BITS}"
        )
    if n * t > MAX_EVAL_BITS:
        raise UnsupportedSizeError(
            f"tuple space 2^{_quote(n * t)} exceeds the 2^{MAX_EVAL_BITS} evaluation budget"
        )
    family = enumerate_family(kind, n)
    size, total = 1 << n, 1 << (n * t)
    best = _Argmax(family.sets)
    digits = [f"{w:0{size}b}"[::-1].encode() for w in family.sets]
    # player i: (step, span, the first tuple of each entry vis)
    layout = []
    for i in range(t):
        s = n * (t - 1 - i)
        low = (1 << s) - 1
        bases = [(vis >> s) << (s + n) | (vis & low) for vis in range(1 << (n * (t - 1)))]
        layout.append((1 << s, size << s, bases))

    def ascend(restart: int) -> tuple[int, list[list[int]], int]:
        tables = list(map(list, random_strategy(family, t, stream_rng(seed, restart)).tables))
        strings = []
        for table, (step, span, bases) in zip(tables, layout):
            own = bytearray(total)
            for base, m in zip(bases, table):
                own[base : base + span : step] = digits[m]
            strings.append(own)
        sweeps = 0
        while True:
            sweeps += 1
            changed = False
            for i, (table, (step, span, bases)) in enumerate(zip(tables, layout)):
                # player i's moves rewrite only player i's string, so the AND
                # of the others' strings holds for the whole pass
                both = -1
                for j, other in enumerate(strings):
                    if j != i:
                        both &= int.from_bytes(other, "little")
                # big-endian, tuple k is byte total - 1 - k: entry vis reads
                # its digits high point first, from byte total - 1 - base - span + step
                seen = both.to_bytes(total, "big")
                last = total - 1 - span + step
                own = strings[i]
                wins = 0
                for vis, base in enumerate(bases):
                    top = last - base
                    c, b = best[int(seen[top : top + span : step], 2)]
                    wins += c
                    if table[vis] != b:
                        table[vis] = b
                        changed = True
                        own[base : base + span : step] = digits[b]
            if not changed:
                return wins, tables, sweeps

    # keep only the first best restart's tables, not every restart's
    wins, tables, work = -1, None, 0
    for restart in range(restarts):
        got, got_tables, sweeps = ascend(restart)
        work += sweeps
        if got > wins:
            wins, tables = got, got_tables
    witness = Strategy(n=n, t=t, tables=tuple(map(tuple, tables)))
    return _rechecked(witness, family, wins, "local-search", work)


def dominance_chain(t: int, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """(p_dict, p_intersecting, p_monotone) at (t, n), checked non-decreasing."""
    p_dict = exact_p(t, n, "dictator").value
    p_int = exact_p(t, n, "intersecting").value
    p_mono = exact_p(t, n, "monotone").value
    if not p_dict <= p_int <= p_mono:
        raise RuntimeError(
            f"dominance chain violated at (t={t}, n={n}): "
            f"dict={p_dict}, intersecting={p_int}, monotone={p_mono}"
        )
    return p_dict, p_int, p_mono
