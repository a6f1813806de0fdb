"""Exact determinacy solving by memoized backward induction.

``solve`` computes the winner over canonical positions and, on request,
reads the winner's positional strategy (first winning move in canonical
order) off the records its value fill kept; ``strategy_for`` gives a table
for either role, from the one fill that names the winner, and for the
losing role probes that fill's values in a second deterministic pass over
the engine's positional walk.  ``refute`` is the dual check: an independent
exists/forall search for a winning strategy for a *given* role.
``reference_winner`` is the deliberately naive oracle -- raw recursion over
positions with no memoization and no canonicalization -- kept around so the
main path can always be cross-checked.

``solve`` is the one way to a ``SolveResult``: every call fills the values
afresh, and nothing is stored on disk, because solving again costs no more
than loading a stored table would.

The value fill memoizes only the positions with no pending move and
recurses once per such position, so once per round.  It expands each
cut's pick position inside the cut position's move loop: the pieces'
child cores are judged by the instance's referee (``GameInstance.referee``,
read off its terminal rule) and looked up in the memo before any
recursive call, and pick positions are counted as ``_value_function``
says.  Memo values are winner names only.  The records hold the first
winning move in canonical order, which depends on the children's values
alone and not on the order they were evaluated in, so the table read off
them is the probing pass's, entry for entry.  A winner-only solve of a U
game over ``size_at_most`` that cuts its core takes the size shortcut,
``_symmetric_winner``, which judges through the same referee.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, repeat
from typing import Callable, Optional

from .engine import (BM_GAMES, CHOOSE, CUT, NONEMPTY, STRICT_PREFIX, U, WEAK,
                     FunctionStrategy, GameInstance, GameState, TableStrategy,
                     apply_move, depth_limited, initial_state, legal_moves,
                     tabulate_strategy, terminal_status)
from .errors import CapacityError
from .structures import SIZE_AT_MOST, popcount

# Cap on the positions one value fill, extraction or refutation visits.
DEFAULT_STATE_BUDGET = 10_000_000
# Cap on the nodes ``reference_winner`` visits: it memoizes nothing.
REFERENCE_NODE_BUDGET = 50_000_000


@dataclass
class SolveStats:
    states_visited: int = 0
    memo_hits: int = 0

    def counts(self) -> dict:
        return {"states_visited": self.states_visited,
                "memo_hits": self.memo_hits}

    def to_jsonable(self) -> dict:
        # ``cached`` stays in the document, always false, so its bytes hold
        return {**self.counts(), "cached": False}


@dataclass
class SolveResult:
    winner: str
    strategy: Optional[TableStrategy]
    stats: SolveStats


# ---------------------------------------------------------------------------
# Generic backward induction
# ---------------------------------------------------------------------------

def _value_function(inst: GameInstance, stats: SolveStats, memo: dict,
                    records: Optional[dict] = None
                    ) -> Callable[[GameState], str]:
    """The winner of a position, by AND-OR evaluation with transpositions.

    Only positions with no pending move go into ``memo``, and the fill
    recurses once per such position.  A pick position has one parent, the
    cut position that made it, so the cut's loop expands it inline: it
    counts one visit, and its value is the OR over its pieces, each a child
    core ``core & piece`` (``core & down[piece]`` on a poset) one round on.
    Each child is judged by the instance's referee, then looked up in the
    memo, and only then filled, so no child costs a move application, a
    terminal test or a call of its own.  A Banach-Mazur position's children
    are positions with no pending move, judged the same way.  Asked later
    for a pick position's value (the probing extraction does so when the
    cutter wins), the function counts one memo hit and reads its pieces'
    values from the memo without counting them; a piece the fill never
    reached is filled then.  So ``states_visited`` and ``memo_hits`` are
    those of a fill that memoizes every position.  The caller owns the memo
    and clears it when its walk ends: the self-recursive closures would
    otherwise keep it alive until the cyclic collector runs.

    Given ``records``, the fill also keeps the decision it made at each
    position it filled: where the mover wins, ``(move, child, probes)`` for
    the first winning move; where the mover loses, the replies to its moves
    in canonical order, each child or, after a cut, the picker's first
    winning answer ``pick position, piece, child, probes``, all in one flat
    tuple, so that the cyclic collector tracks one object per position
    rather than one per move.  Only a recording fill builds the pick
    positions, one per cut.  Which winning move comes first in canonical
    order depends on the children's values alone, not on the order they
    were evaluated in, so the probing extraction takes the same one.
    ``probes`` is the memo hits that extraction counts there: one per pick
    position and per non-terminal child up to the winning one."""
    referee = inst.referee
    opponent = inst.opponent
    down = None if inst.poset is None else inst.poset.down
    state_budget = DEFAULT_STATE_BUDGET
    _new = tuple.__new__  # skips GameState's generated __new__, a call

    def count_visit() -> None:
        stats.states_visited += 1
        if stats.states_visited > state_budget:
            raise CapacityError("state budget exceeded", stats.counts())

    def fill_cuts(state: GameState) -> str:
        # a cut position neither memoized nor terminal
        count_visit()
        round_, _, core, _ = state
        nxt = round_ + 1
        result = CHOOSE
        replies = []
        probes = 0
        for cut in legal_moves(inst, state):
            count_visit()  # the pick position
            hits = 0
            for piece in cut:
                child_core = core & (piece if down is None else down[piece])
                value = referee(nxt, child_core)
                if value is None:
                    hits += 1
                    child = _new(GameState, (nxt, CUT, child_core, None))
                    value = memo.get(child)
                    if value is None:
                        value = fill(child)
                    else:
                        stats.memo_hits += 1
                if value == CHOOSE:
                    break
            else:  # the picker has no answer to this cut
                result = CUT
                if records is not None:
                    records[state] = cut, _new(GameState, (
                        round_, CHOOSE, core, tuple(cut))), probes + 1
                break
            if records is not None:
                pick = _new(GameState, (round_, CHOOSE, core, tuple(cut)))
                replies += pick, piece, _new(GameState, (
                    nxt, CUT, child_core, None)), hits
                probes += 1
        else:
            if records is not None:
                records[state] = tuple(replies)
        memo[state] = result
        return result

    def fill_moves(state: GameState) -> str:
        # a Banach-Mazur position neither memoized nor terminal
        count_visit()
        round_, mover, _, _ = state
        other = opponent(mover)
        nxt = round_ + (mover == NONEMPTY)  # Nonempty's move ends a round
        result = other
        replies = []
        probes = 0
        for move in legal_moves(inst, state):
            child = _new(GameState, (nxt, other, move, None))
            value = referee(nxt, move)
            if value is None:
                probes += 1
                value = memo.get(child)
                if value is None:
                    value = fill(child)
                else:
                    stats.memo_hits += 1
            if value == mover:
                result = mover
                if records is not None:
                    records[state] = move, child, probes
                break
            replies.append(child)
        else:
            if records is not None:
                records[state] = tuple(replies)
        memo[state] = result
        return result

    fill = fill_moves if inst.game_family in BM_GAMES else fill_cuts

    def settled(state: GameState) -> str:
        # a position with no pending move
        value = memo.get(state)
        if value is not None:
            stats.memo_hits += 1
            return value
        value = referee(state.round, state.core)
        return fill(state) if value is None else value

    def value(state: GameState) -> str:
        if state.pending is None:
            return settled(state)
        stats.memo_hits += 1
        mover = state.to_move
        for piece in state.pending:
            child = apply_move(inst, state, piece, check=False)
            hit = memo.get(child)
            if (hit if hit is not None else settled(child)) == mover:
                return mover
        return opponent(mover)

    return value


@contextmanager
def _filled(inst: GameInstance, stats: SolveStats, record: bool):
    """A value function and, if ``record``, the fill's records, both living
    for the ``with`` block.  A game deeper than Python's recursion limit
    allows fails with a ``CapacityError`` that names its depth."""
    memo: dict[GameState, str] = {}
    records: Optional[dict[GameState, tuple]] = {} if record else None
    try:
        with depth_limited(inst.rounds, "solve", stats.counts):
            yield _value_function(inst, stats, memo, records), records
    finally:
        memo.clear()
        if records is not None:
            records.clear()


# ---------------------------------------------------------------------------
# Symmetric fast path for U-games with size-bounded families
# ---------------------------------------------------------------------------

def _int_partitions(total: int, parts: int, largest: int):
    """The partitions of ``total`` into at most ``parts`` parts of at most
    ``largest`` each, parts descending."""
    if total == 0:
        yield ()
    elif parts:
        for p in range(min(largest, total), 0, -1):
            for rest in _int_partitions(total - p, parts - 1, p):
                yield (p, *rest)


def _symmetric_winner(inst: GameInstance) -> str:
    """Winner via the size abstraction: a fully symmetric family makes a
    position depend only on its round and the core's cardinality, so a core
    of s points is judged by ``inst.referee`` at a core of s points.  A
    core the family holds stays small whatever the cuts (the family is
    downward closed), so it settles at the referee's first verdict on it; a
    positive point is cut into itself, one recursion per round."""
    referee = inst.referee

    @lru_cache(maxsize=None)
    def winner(round_: int, size: int) -> str:
        # the cutter to move at round ``round_`` on ``size`` points
        core = (1 << size) - 1
        if core in inst.family:  # the first verdict from this round on
            verdicts = map(referee, count(round_), repeat(core))
            return next(filter(None, verdicts))
        verdict = referee(round_, core)
        if verdict is not None:
            return verdict
        # parts below ``size`` make two or more, but a point has only
        # itself, as in ``structures._partitions``
        for parts in _int_partitions(size, inst.width, max(size - 1, 1)):
            for part in parts:
                if winner(round_ + 1, part) == CHOOSE:
                    break
            else:
                return CUT
        return CHOOSE

    return winner(0, popcount(inst.start))


# ---------------------------------------------------------------------------
# Strategy extraction
# ---------------------------------------------------------------------------

def extract_strategy(inst: GameInstance, role: str,
                     value: Callable[[GameState], str]) -> TableStrategy:
    """The probing walk: at the role's turn take the first move in canonical
    order that stays winning (first move overall as a best-effort fallback
    for a losing role); follow every opposing reply."""
    def choose(inst_, state: GameState):
        options = legal_moves(inst, state)
        for move in options:
            if value(apply_move(inst, state, move, check=False)) == role:
                return move
        return options[0]

    return TableStrategy(role, tabulate_strategy(
        inst, FunctionStrategy(role, choose), role,
        DEFAULT_STATE_BUDGET).entries, f"solver-{role}")


def _recorded_strategy(inst: GameInstance, role: str, records: dict,
                       stats: SolveStats) -> TableStrategy:
    """``extract_strategy(inst, role, value)`` for the winner ``role``, read
    off the fill's records: the same entries in the same order, and the
    memo hits the probing walk counts added to ``stats``.  It probes no
    value and enumerates no move list.  The winner's walk reaches only
    positions the fill evaluated, so a position with no pending move is
    terminal exactly when it has no record.  For the same reason the walk
    never outgrows the state budget where the fill did not: the fill counted
    every position the walk visits.  The recursion limit is another matter.
    Both recurse once per round, but the walk also enters each terminal
    leaf, which the fill judges inline, so a game one round short of the
    fill's limit can exceed the walk's; ``solve`` runs the walk inside the
    fill's depth guard, so that fails with the same ``CapacityError``."""
    table: dict[GameState, object] = {}
    seen: set[GameState] = set()

    def visit(state: GameState) -> None:
        record = records.get(state)
        if record is None or state in seen:
            return
        seen.add(state)
        if state.to_move == role:
            move, child, probes = record
            stats.memo_hits += probes
            table[state] = move
            if child.pending is None:
                visit(child)
            elif child not in seen:
                seen.add(child)
                for piece in child.pending:
                    visit(apply_move(inst, child, piece, check=False))
            return
        if not record or record[0].pending is None:  # no pick positions
            for child in record:
                visit(child)
            return
        replies = iter(record)
        for pick, piece, child, probes in zip(replies, replies, replies,
                                              replies):
            if pick not in seen:
                seen.add(pick)
                stats.memo_hits += probes
                table[pick] = piece
                visit(child)

    try:
        visit(initial_state(inst))
        return TableStrategy(role, table, f"solver-{role}")
    finally:
        visit = None  # see tabulate_strategy: frees ``seen`` now


# ---------------------------------------------------------------------------
# Solve / refute / oracle
# ---------------------------------------------------------------------------

def solve(inst: GameInstance, want_strategy: bool = True) -> SolveResult:
    """Name the winner; optionally read their strategy off the fill.

    Raises CapacityError (with partial stats) if the position space
    outgrows ``DEFAULT_STATE_BUDGET`` or a single enumeration its budget.
    """
    stats = SolveStats()
    strategy = None
    if (not want_strategy and inst.game_family == U and inst.cut_current
            and inst.family.kind == SIZE_AT_MOST):
        with depth_limited(inst.rounds, "solve", stats.counts):
            winner = _symmetric_winner(inst)
    else:
        with _filled(inst, stats, want_strategy) as (value, records):
            winner = value(initial_state(inst))
            if want_strategy:
                strategy = _recorded_strategy(inst, winner, records, stats)
    return SolveResult(winner, strategy, stats)


def strategy_for(inst: GameInstance, role: str) -> tuple[str, TableStrategy]:
    """The winner and a positional table for ``role``, both from one fill:
    ``solve``'s strategy when ``role`` wins, else the probing extraction's
    best effort for the losing role (first canonical move wherever no move
    wins), which reaches positions the fill never evaluated."""
    stats = SolveStats()
    with _filled(inst, stats, True) as (value, records):
        winner = value(initial_state(inst))
        if role == winner:
            return winner, _recorded_strategy(inst, role, records, stats)
        return winner, extract_strategy(inst, role, value)


@dataclass
class RefuteResult:
    role: str
    has_winning_strategy: bool
    strategy: Optional[TableStrategy]
    nodes: int


def refute(inst: GameInstance, role: str) -> RefuteResult:
    """Exhaustive exists/forall search for a winning strategy for ``role``,
    within ``DEFAULT_STATE_BUDGET`` positions.

    Deliberately a separate code path from ``solve``: confirmation that the
    loser has nothing is computed by quantifier structure, not by reusing the
    minimax value.
    """
    memo: dict[GameState, bool] = {}
    nodes = 0

    def can_win(state: GameState) -> bool:
        nonlocal nodes
        outcome = terminal_status(inst, state)
        if not outcome.ongoing:
            return outcome.status == role
        if state in memo:
            return memo[state]
        nodes += 1
        if nodes > DEFAULT_STATE_BUDGET:
            raise CapacityError("refutation exceeded the state budget",
                                {"nodes": nodes})
        children = (apply_move(inst, state, m, check=False)
                    for m in legal_moves(inst, state))
        if state.to_move == role:
            result = any(can_win(c) for c in children)
        else:
            result = all(can_win(c) for c in children)
        memo[state] = result
        return result

    try:
        with depth_limited(inst.rounds, "refute", lambda: {"nodes": nodes}):
            has = can_win(initial_state(inst))
            strategy = None
            if has:
                strategy = extract_strategy(
                    inst, role,
                    lambda s: role if can_win(s) else inst.opponent(role))
    finally:
        # can_win refers to itself, so only the cyclic collector would
        # free the memo behind it.
        memo.clear()
    return RefuteResult(role, has, strategy, nodes)


def reference_winner(inst: GameInstance) -> str:
    """Unmemoized minimax over raw positions: the independent oracle, within
    ``REFERENCE_NODE_BUDGET`` nodes.

    Binary-width set games get a lean split loop; everything else walks the
    same positions through the regular move enumeration.  No memo table and
    no canonical abstraction are used on purpose.
    """
    if (inst.game_family == U and inst.width == 2 and inst.cut_current):
        return _reference_u2(inst)
    nodes = 0

    def val(state: GameState) -> str:
        nonlocal nodes
        nodes += 1
        if nodes > REFERENCE_NODE_BUDGET:
            raise CapacityError("oracle exceeded the node budget",
                                {"nodes": nodes})
        outcome = terminal_status(inst, state)
        if not outcome.ongoing:
            return outcome.status
        mover = state.to_move
        for move in legal_moves(inst, state):
            if val(apply_move(inst, state, move, check=False)) == mover:
                return mover
        return inst.opponent(mover)

    with depth_limited(inst.rounds, "solve", lambda: {"nodes": nodes}):
        return val(initial_state(inst))


def _reference_u2(inst: GameInstance) -> str:
    family = inst.family
    variant = inst.variant
    rounds = inst.rounds
    nodes = 0

    def branch_cut_wins(piece: int, remaining: int) -> bool:
        # State right after a pick, before the next cut.
        if variant == WEAK:
            if piece in family:
                return True
            if remaining == 0:
                return False
            return cut_wins(piece, remaining)
        if variant == STRICT_PREFIX:
            if remaining >= 1 and piece in family:
                return True
            if remaining == 0:
                return False
            return cut_wins(piece, remaining)
        if remaining == 0:
            return piece in family
        return cut_wins(piece, remaining)

    def cut_wins(core: int, remaining: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > REFERENCE_NODE_BUDGET:
            raise CapacityError("oracle exceeded the node budget",
                                {"nodes": nodes})
        low = core & -core
        rest = core ^ low
        if rest == 0:
            return branch_cut_wins(core, remaining - 1)
        sub = rest
        while True:
            sub = (sub - 1) & rest
            a = sub | low
            b = core ^ a
            if branch_cut_wins(a, remaining - 1) and \
                    branch_cut_wins(b, remaining - 1):
                return True
            if sub == 0:
                break
        return False

    with depth_limited(rounds, "solve", lambda: {"nodes": nodes}):
        return CUT if cut_wins(inst.start, rounds) else CHOOSE
