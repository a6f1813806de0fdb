"""The per-position reference of the value fill: the referee written out
variant by variant, and the fill that expands every position through
``apply_move``, judges it through that referee and evaluates each pick
position in a call of its own.  ``solver._value_function`` expands pick
positions inline and judges through ``GameInstance.referee``; it must keep
this fill's winners, counts, records and budget failures."""

from typing import Callable, Optional

from cutchoose import solver
from cutchoose.engine import (BM_GAMES, CHOOSE, CUT, EMPTY, EXACT, G_POSET,
                              NONEMPTY, ONGOING, WEAK, GameInstance,
                              GameState, Outcome, apply_move, core_positive,
                              legal_moves)
from cutchoose.errors import CapacityError
from cutchoose.solver import SolveStats


def terminal_status(inst: GameInstance, state: GameState) -> Outcome:
    """The referee, each variant's rule spelled out on its own."""
    if inst.game_family in BM_GAMES:
        if state.round < inst.rounds:
            return Outcome(ONGOING)
        # a poset core is an element, a lower bound of the chain
        if inst.poset is not None or state.core != 0:
            return Outcome(NONEMPTY, "final core nonempty")
        return Outcome(EMPTY, "final core empty")
    if state.pending is not None:
        return Outcome(ONGOING)
    variant = inst.variant
    poset = inst.game_family == G_POSET
    if variant == EXACT:
        if state.round < inst.rounds:
            return Outcome(ONGOING)
        if core_positive(inst, state.core):
            return Outcome(CHOOSE, "choices have a common lower bound"
                           if poset else "final intersection positive")
        return Outcome(CUT, "choices have no common lower bound"
                       if poset else "final intersection in the family")
    # weak and strict prefix: every intersection after a pick must stay
    # positive, the last one too under weak
    if (1 <= state.round and (variant == WEAK or state.round < inst.rounds)
            and not core_positive(inst, state.core)):
        return Outcome(CUT, ("lower-bound set vanished" if poset else
                             "running intersection fell into the family")
                       + " at round " + str(state.round))
    if state.round < inst.rounds:
        return Outcome(ONGOING)
    if variant == WEAK:
        return Outcome(CHOOSE, "survived every round")
    return Outcome(CHOOSE, "every proper prefix stayed positive")


def value_function(inst: GameInstance, stats: SolveStats, memo: dict,
                   records: Optional[dict] = None
                   ) -> Callable[[GameState], str]:
    """``solver._value_function``'s contract, one call per position: a pick
    position counts one visit and is evaluated, never memoized, in its
    parent's move loop; asked for a pick position's value, the function
    counts one memo hit and reads its pieces from the memo.  With
    ``records`` it keeps ``(move, child, probes)`` where the mover wins and
    the flat replies ``child`` or ``pick, piece, child, probes`` where it
    loses; ``probes`` counts the pick positions and the non-terminal
    children up to the winning one.  The budget is read when called."""
    opponent = inst.opponent
    state_budget = solver.DEFAULT_STATE_BUDGET

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

    def answer(state: GameState) -> Optional[tuple]:
        # ``pick(state, settled)``, recorded: None if the picker loses
        mover = state.to_move
        probes = 0
        for piece in state.pending:
            child = apply_move(inst, state, piece, check=False)
            won = settled(child) == mover
            probes += child in memo
            if won:
                return state, piece, child, probes
        return None

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
        if records is None:
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
        else:
            replies = []
            probes = 0
            for move in legal_moves(inst, state):
                child = apply_move(inst, state, move, check=False)
                if child.pending is None:
                    won = settled(child) == mover
                    probes += child in memo
                    reply = (child,)
                else:
                    count_visit()
                    reply = answer(child)
                    won = reply is None
                    probes += 1
                if won:
                    result = mover
                    records[state] = move, child, probes
                    break
                replies += reply
            else:
                records[state] = tuple(replies)
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
