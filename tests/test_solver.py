import gc

import pytest

from cutchoose import analysis, solver
from cutchoose.engine import (BM_IDEAL, CHOOSE, CUT, EXACT, G_IDEAL, G_POSET,
                              NONEMPTY, STRICT_PREFIX, U, WEAK, GameInstance,
                              initial_state, tabulate_strategy,
                              verify_winning_strategy)
from cutchoose.errors import CapacityError
from cutchoose.serialize import serialize_strategy
from cutchoose.solver import (RefuteResult, SolveStats, _value_function,
                              extract_strategy, refute, reference_winner,
                              solve, strategy_for)
from cutchoose.structures import FinitePoset, GroundSet, MonotoneFamily


def u_instance(m, rounds, width=2, variant=EXACT, bound=1, cut_current=True):
    g = GroundSet(m)
    return GameInstance(game_family=U, start=g.full_mask, rounds=rounds,
                        width=width, variant=variant, cut_current=cut_current,
                        ground=g, family=MonotoneFamily.size_at_most(g, bound))


def test_solve_examples():
    assert solve(u_instance(4, 2), want_strategy=False).winner == CUT
    assert solve(u_instance(5, 2), want_strategy=False).winner == CHOOSE
    assert solve(u_instance(3, 1, width=3), want_strategy=False).winner == CUT
    assert solve(u_instance(4, 1, width=3), want_strategy=False).winner == CHOOSE


def test_solver_strategy_verifies():
    for m, n in ((4, 2), (5, 2), (3, 1), (6, 3)):
        inst = u_instance(m, n)
        result = solve(inst)
        assert verify_winning_strategy(inst, result.strategy,
                                       result.winner).verified


def test_symmetric_path_agrees_with_generic():
    for m in range(2, 9):
        for n in (1, 2, 3):
            for width in (2, 3):
                for variant in (EXACT, WEAK, "strict_prefix"):
                    inst = u_instance(m, n, width=width, variant=variant)
                    fast = solve(inst, want_strategy=False).winner
                    slow_stats_inst = u_instance(m, n, width=width,
                                                 variant=variant)
                    # force the generic path by requesting a strategy
                    slow = solve(slow_stats_inst, want_strategy=True).winner
                    assert fast == slow, (m, n, width, variant)


def test_refute_and_the_oracle_read_their_budgets_when_called(monkeypatch):
    # no caller passes a budget: each is a module constant, read per call
    monkeypatch.setattr(solver, "DEFAULT_STATE_BUDGET", 3)
    with pytest.raises(CapacityError, match="refutation") as err:
        refute(u_instance(5, 2), CUT)
    assert err.value.stats == {"nodes": 4}
    monkeypatch.setattr(solver, "REFERENCE_NODE_BUDGET", 5)
    # width 2 takes the split loop, width 3 the generic recursion
    for width in (2, 3):
        with pytest.raises(CapacityError, match="oracle") as err:
            reference_winner(u_instance(5, 2, width=width))
        assert err.value.stats == {"nodes": 6}


def test_refute_examples():
    inst = u_instance(5, 2)
    confirmed = refute(inst, CUT)
    assert not confirmed.has_winning_strategy
    found = refute(inst, CHOOSE)
    assert found.has_winning_strategy
    assert verify_winning_strategy(inst, found.strategy, CHOOSE).verified


def test_refute_agrees_with_solve_on_corpus():
    corpus = analysis.generate_corpus(5, per_family=5)
    for item in corpus:
        winner = solve(item.instance, want_strategy=False).winner
        loser = item.instance.opponent(winner)
        assert not refute(item.instance, loser).has_winning_strategy
        assert refute(item.instance, winner).has_winning_strategy


def test_solve_deterministic_serialization():
    inst = u_instance(5, 2)
    a = serialize_strategy(inst, solve(inst).strategy)
    b = serialize_strategy(inst, solve(inst).strategy)
    assert a == b


def test_capacity_error_carries_stats(monkeypatch):
    inst = u_instance(6, 3)
    monkeypatch.setattr(solver, "DEFAULT_STATE_BUDGET", 5)
    with pytest.raises(CapacityError) as err:
        solve(inst, want_strategy=True)
    assert "states_visited" in err.value.stats


def test_reference_winner_matches_solver_weak():
    for m in range(2, 9):
        for n in (1, 2):
            inst = u_instance(m, n, variant=WEAK)
            assert reference_winner(inst) == \
                solve(inst, want_strategy=False).winner


def test_reference_winner_matches_solver_strict_prefix():
    # the oracle's split loop against the value fill and the winner-only
    # path, 69 games; the bound stays below m so that the start is positive
    for m in range(2, 10):
        for n in (1, 2, 3):
            for bound in range(min(3, m)):
                inst = u_instance(m, n, variant=STRICT_PREFIX, bound=bound)
                assert reference_winner(inst) == solve(inst).winner == \
                    solve(inst, want_strategy=False).winner, (m, n, bound)


def test_monotone_transfer_small():
    from cutchoose.transforms import restrict_choose_strategy
    inner = u_instance(5, 2)
    result = solve(inner)
    assert result.winner == CHOOSE
    outer = u_instance(7, 2)
    out = restrict_choose_strategy(result.strategy, inner, outer,
                                   (0, 1, 2, 3, 4))
    assert verify_winning_strategy(outer, out.strategy, CHOOSE).verified


def test_width_three_threshold_at_the_ground_cap():
    # the ternary three-round threshold (27) exceeds the ground cap, so the
    # cutter wins every legal size; check the boundary sizes
    for m in (20, 24):
        inst = u_instance(m, 3, width=3)
        assert solve(inst, want_strategy=False).winner == CUT


@pytest.mark.parametrize("m", [4, 5])
def test_strategy_for_both_roles(m):
    inst = u_instance(m, 2)
    result = solve(inst)
    loser = inst.opponent(result.winner)
    winner, table = strategy_for(inst, result.winner)
    assert winner == result.winner
    assert table.entries == result.strategy.entries
    winner, table = strategy_for(inst, loser)
    # the losing role's table as the command line rebuilt it before
    value = _value_function(inst, SolveStats(), {})
    value(initial_state(inst))
    expected = extract_strategy(inst, loser, value)
    assert winner == result.winner
    assert list(table.entries.items()) == list(expected.entries.items())
    assert table.role == loser and table.name == expected.name


def test_walk_memos_are_freed_on_return():
    # The memos behind solve, refute and tabulation hang off self-recursive
    # closures; they must be emptied when the walk ends, not left for the
    # cyclic collector.
    def keyed_by_positions(obj):
        return isinstance(obj, (dict, set)) and any(
            isinstance(k, tuple) and len(k) == 4 and isinstance(k[1], str)
            for k in obj)

    inst = u_instance(5, 2)
    gc.collect()
    gc.disable()
    try:
        result = solve(inst)
        refuted = refute(inst, result.winner)
        table = tabulate_strategy(inst, result.strategy, result.winner)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if keyed_by_positions(o)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert refuted.has_winning_strategy and table.entries
    assert leaked == []


def _pinned_games():
    g4, g5, g6 = GroundSet(4), GroundSet(5), GroundSet(6)
    poset = FinitePoset.from_subsets(
        [0b0001, 0b0010, 0b0100, 0b0011, 0b0110, 0b0111, 0b1111], 6)
    return {
        "ladder m=6 size_at_most": u_instance(6, 3),
        "ladder m=6 generated_by": GameInstance(
            game_family=U, start=g6.full_mask, rounds=3, width=2, ground=g6,
            family=MonotoneFamily.generated_by(g6, [0b000111, 0b011100])),
        "G_ideal": GameInstance(
            game_family=G_IDEAL, start=g5.full_mask, rounds=3, width=2,
            ground=g5,
            family=MonotoneFamily.generated_by(g5, [0b00011, 0b01100])),
        "G_poset": GameInstance(
            game_family=G_POSET, start=6, rounds=3, width=None,
            cut_current=False, poset=poset),
        "BM_ideal": GameInstance(
            game_family=BM_IDEAL, start=g4.full_mask, rounds=3, width=None,
            ground=g4, family=MonotoneFamily.generated_by(g4, [0b0010])),
    }


# Winner, states visited and memo hits of a solve with a strategy, and the
# memo hits when a budget of one state fewer trips; ``solve --json`` prints
# the first two counts.
SOLVE_STATS = {
    "ladder m=6 size_at_most": (CUT, 124, 12, 3),
    "ladder m=6 generated_by": (CHOOSE, 473, 594, 259),
    "G_ideal": (CHOOSE, 102, 80, 32),
    "G_poset": (CHOOSE, 56, 49, 20),
    "BM_ideal": (NONEMPTY, 35, 32, 12),
}


@pytest.mark.parametrize("name", sorted(SOLVE_STATS))
def test_solve_stats_and_budget_trip_are_pinned(name, monkeypatch):
    inst = _pinned_games()[name]
    winner, visited, hits, hits_at_trip = SOLVE_STATS[name]
    result = solve(inst)
    assert (result.winner, result.stats.states_visited,
            result.stats.memo_hits) == (winner, visited, hits)
    monkeypatch.setattr(solver, "DEFAULT_STATE_BUDGET", visited - 1)
    with pytest.raises(CapacityError) as err:
        solve(inst)
    assert err.value.stats == {"states_visited": visited,
                               "memo_hits": hits_at_trip}


@pytest.mark.parametrize("name", sorted(SOLVE_STATS))
def test_the_fill_memoizes_no_pick_position(name):
    inst = _pinned_games()[name]
    memo = {}
    value = _value_function(inst, SolveStats(), memo)
    winner = value(initial_state(inst))
    for role in (winner, inst.opponent(winner)):
        extract_strategy(inst, role, value)
    assert memo and all(state.pending is None for state in memo)
