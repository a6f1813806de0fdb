import gc
import json
import os

import pytest

from cutchoose import analysis
from cutchoose.engine import (CHOOSE, CUT, EXACT, U, WEAK, GameInstance,
                              initial_state, tabulate_strategy,
                              verify_winning_strategy)
from cutchoose.errors import CapacityError
from cutchoose.serialize import serialize_strategy
from cutchoose.solver import (RefuteResult, SolveStats, _value_function,
                              extract_strategy, refute, reference_winner,
                              solve, strategy_for)
from cutchoose.structures import GroundSet, MonotoneFamily


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


def test_capacity_error_carries_stats():
    inst = u_instance(6, 3)
    with pytest.raises(CapacityError) as err:
        solve(inst, want_strategy=True, state_budget=5)
    assert "states_visited" in err.value.stats


def test_reference_winner_matches_solver_weak():
    for m in range(2, 9):
        for n in (1, 2):
            inst = u_instance(m, n, variant=WEAK)
            assert reference_winner(inst) == \
                solve(inst, want_strategy=False).winner


def test_monotone_transfer_small():
    from cutchoose.transforms import restrict_choose_strategy
    inner = u_instance(5, 2)
    result = solve(inner)
    assert result.winner == CHOOSE
    outer = u_instance(7, 2)
    out = restrict_choose_strategy(result.strategy, inner, outer,
                                   (0, 1, 2, 3, 4))
    assert verify_winning_strategy(outer, out.strategy, CHOOSE).verified


def test_disk_cache_round_trip_and_corruption(tmp_path):
    cache = str(tmp_path / "cache")
    inst = u_instance(4, 2)
    first = solve(inst, cache_dir=cache)
    assert not first.stats.cached
    second = solve(inst, cache_dir=cache)
    assert second.stats.cached
    assert second.winner == first.winner
    assert serialize_strategy(inst, second.strategy) == \
        serialize_strategy(inst, first.strategy)
    # corrupt every entry: must be treated as a miss, then rewritten
    for name in os.listdir(cache):
        path = os.path.join(cache, name)
        with open(path, "r+", encoding="utf-8") as fh:
            doc = json.load(fh)
            doc["winner"] = "Nobody"
            fh.seek(0)
            json.dump(doc, fh)
            fh.truncate()
    third = solve(inst, cache_dir=cache)
    assert not third.stats.cached
    assert third.winner == first.winner


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
    value = _value_function(inst, SolveStats(), 10_000_000, {})
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
