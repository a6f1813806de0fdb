"""Exact determinacy solving by memoized backward induction.

``solve`` computes the winner over canonical positions and, on request,
extracts the winner's positional strategy in a second deterministic pass
(first winning move in canonical order) over the engine's positional walk;
``strategy_for`` gives a table for either role, from the one fill that
names the winner.  ``refute`` is the dual check: an independent
exists/forall search for a winning strategy for a *given* role.
``reference_winner`` is the deliberately naive oracle -- raw recursion over
positions with no memoization and no canonicalization -- kept around so the
main path can always be cross-checked.

``solve`` is the one way to a ``SolveResult``: every call fills the values
afresh, and nothing is stored on disk, because solving again costs no more
than loading a stored table would.

The value fill memoizes only the positions with no pending move; pick
positions are evaluated inline and counted as ``_value_function`` says.
Memo values are winner names only; strategies are never read out of the
memo fill, so evaluation order cannot perturb the extracted strategy.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .engine import (CHOOSE, CUT, STRICT_PREFIX, U, WEAK, GameInstance,
                     GameState, TableStrategy, apply_move, depth_limited,
                     initial_state, legal_moves, tabulate_positions,
                     terminal_status)
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

def _value_function(inst: GameInstance, stats: SolveStats,
                    memo: dict) -> Callable[[GameState], str]:
    """The winner of a position, by AND-OR evaluation with transpositions.

    Only positions with no pending move go into ``memo``.  A pick position
    has one parent, the cut position that made it, so a memo entry for it
    would never be read during the fill: its value is the OR over its
    pieces, evaluated inline in that parent's move loop, and it counts one
    visit.  Asked later for a pick position's value (extraction does so
    when the cutter wins), the function counts one memo hit and reads its
    pieces' values from the memo without counting them; a piece the fill
    never reached is filled then.  So ``states_visited`` and ``memo_hits``
    are those of a fill that memoizes every position.  The caller owns the
    memo and clears it when its walk ends: the self-recursive closures
    would otherwise keep it alive until the cyclic collector runs."""
    opponent = inst.opponent
    state_budget = DEFAULT_STATE_BUDGET

    def count_visit() -> None:
        stats.states_visited += 1
        if stats.states_visited > state_budget:
            raise CapacityError("state budget exceeded", stats.counts())

    def pick(state: GameState, after: Callable[[GameState], str]) -> str:
        mover = state.to_move
        for piece in state.pending:
            if after(apply_move(inst, state, piece, check=False)) == mover:
                return mover
        return opponent(mover)

    def settled(state: GameState) -> str:
        # a position with no pending move
        hit = memo.get(state)
        if hit is not None:
            stats.memo_hits += 1
            return hit
        outcome = terminal_status(inst, state)
        if not outcome.ongoing:
            return outcome.status
        count_visit()
        mover = state.to_move
        result = opponent(mover)
        for move in legal_moves(inst, state):
            child = apply_move(inst, state, move, check=False)
            if child.pending is None:
                child_value = settled(child)
            else:
                count_visit()
                child_value = pick(child, settled)
            if child_value == mover:
                result = mover
                break
        memo[state] = result
        return result

    def read(state: GameState) -> str:
        hit = memo.get(state)
        return hit if hit is not None else settled(state)

    def value(state: GameState) -> str:
        if state.pending is None:
            return settled(state)
        stats.memo_hits += 1
        return pick(state, read)

    return value


@contextmanager
def _filled(inst: GameInstance, stats: SolveStats):
    """A value function over a memo that lives for the ``with`` block.  A
    game deeper than Python's recursion limit allows fails with a
    ``CapacityError`` that names its depth."""
    memo: dict[GameState, str] = {}
    try:
        with depth_limited(inst.rounds, "solve", stats.counts):
            yield _value_function(inst, stats, memo)
    finally:
        memo.clear()


# ---------------------------------------------------------------------------
# Symmetric fast path for U-games with size-bounded families
# ---------------------------------------------------------------------------

def _symmetric_applicable(inst: GameInstance) -> bool:
    return (inst.game_family == U and inst.cut_current
            and inst.family.kind == SIZE_AT_MOST)


def _int_partitions(total: int, max_parts: int):
    """Partitions of ``total`` into 2..max_parts parts, parts descending."""
    def rec(remaining: int, cap: int, parts: list[int]):
        if remaining == 0:
            if len(parts) >= 2:
                yield tuple(parts)
            return
        if len(parts) >= max_parts:
            return
        for p in range(min(cap, remaining), 0, -1):
            parts.append(p)
            yield from rec(remaining - p, p, parts)
            parts.pop()

    yield from rec(total, total, [])


def _symmetric_winner(inst: GameInstance) -> str:
    """Winner via the size abstraction: fully symmetric families make the
    position depend only on the core's cardinality.  The exact, weak, and
    prefix variants coincide up to round bookkeeping because cores only
    shrink under a monotone family."""
    k = inst.family.bound
    width = inst.width

    @lru_cache(maxsize=None)
    def cut_wins(size: int, remaining: int) -> bool:
        # Entered with a positive core (size > k), cutter to move.
        if remaining == 0:
            return False
        if size == 1:
            return cut_wins(size, remaining - 1) if k < 1 else True
        for parts in _int_partitions(size, min(width, size)):
            if all(p <= k or cut_wins(p, remaining - 1) for p in parts):
                return True
        return False

    rounds = inst.rounds - 1 if inst.variant == STRICT_PREFIX else inst.rounds
    return CUT if cut_wins(popcount(inst.start), rounds) else CHOOSE


# ---------------------------------------------------------------------------
# Strategy extraction
# ---------------------------------------------------------------------------

def extract_strategy(inst: GameInstance, role: str,
                     value: Callable[[GameState], str]) -> TableStrategy:
    """Deterministic second pass: at the role's turn take the first move in
    canonical order that stays winning (first move overall as a best-effort
    fallback for a losing role); follow every opposing reply."""
    def choose(state: GameState, moves: list):
        options = legal_moves(inst, state)
        for move in options:
            if value(apply_move(inst, state, move, check=False)) == role:
                return move
        return options[0]

    return tabulate_positions(inst, role, choose, DEFAULT_STATE_BUDGET,
                              f"solver-{role}")


# ---------------------------------------------------------------------------
# Solve / refute / oracle
# ---------------------------------------------------------------------------

def solve(inst: GameInstance, want_strategy: bool = True) -> SolveResult:
    """Name the winner; optionally extract and return their strategy.

    Raises CapacityError (with partial stats) if the position space
    outgrows ``DEFAULT_STATE_BUDGET`` or a single enumeration its budget.
    """
    stats = SolveStats()
    strategy = None
    if _symmetric_applicable(inst) and not want_strategy:
        winner = _symmetric_winner(inst)
        stats.states_visited = 0
    else:
        with _filled(inst, stats) as value:
            winner = value(initial_state(inst))
            if want_strategy:
                strategy = extract_strategy(inst, winner, value)
    return SolveResult(winner, strategy, stats)


def strategy_for(inst: GameInstance, role: str) -> tuple[str, TableStrategy]:
    """The winner and a positional table for ``role``, both from one fill:
    ``solve``'s strategy when ``role`` wins, else the best-effort extraction
    for the losing role (first canonical move wherever no move wins)."""
    with _filled(inst, SolveStats()) as value:
        return value(initial_state(inst)), extract_strategy(inst, role, value)


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

    return CUT if cut_wins(inst.start, rounds) else CHOOSE
