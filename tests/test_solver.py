import gc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from cutchoose import analysis, solver
from cutchoose.engine import (BM_GAMES, BM_IDEAL, BM_POSET, CHOOSE, CUT, EXACT,
                              G_IDEAL, G_POSET, MASK_GAMES, NONEMPTY,
                              STRICT_PREFIX, U, WEAK, GameInstance,
                              apply_move, initial_state, legal_moves,
                              tabulate_strategy, terminal_status,
                              verify_winning_strategy)
from cutchoose.errors import CapacityError
from cutchoose.serialize import serialize_strategy
from cutchoose.solver import (RefuteResult, SolveStats, _value_function,
                              extract_strategy, refute, reference_winner,
                              solve, strategy_for)
from cutchoose.structures import (FiniteBooleanAlgebra, FinitePoset,
                                  GroundSet, MonotoneFamily)

import fill_oracle


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
    # bound 0 plays a one-point core on, cut into itself, until a verdict
    for bound in (0, 1, 2):
        for m in range(max(2, bound + 1), 9):
            for n in (1, 2, 3):
                for width in (2, 3):
                    for variant in (EXACT, WEAK, STRICT_PREFIX):
                        inst = u_instance(m, n, width=width, variant=variant,
                                          bound=bound)
                        fast = solve(inst, want_strategy=False).winner
                        # a strategy request takes the generic value fill
                        slow = solve(inst, want_strategy=True).winner
                        assert fast == slow, (bound, m, n, width, variant)


def test_the_size_shortcut_settles_long_games_without_a_fill():
    # a part the family holds settles with no recursion per round, so a
    # 5,000-round game the cutter wins early recurses only as deep as its
    # cuts
    for bound in (1, 2):
        for variant in (EXACT, WEAK, STRICT_PREFIX):
            result = solve(u_instance(24, 5000, variant=variant, bound=bound),
                           want_strategy=False)
            assert (result.winner, result.stats.counts()) == \
                (CUT, {"states_visited": 0, "memo_hits": 0}), (bound, variant)


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


@pytest.mark.parametrize("search, task", [
    (lambda inst: solve(inst, want_strategy=False), "solve"),
    (solve, "solve"),
    (lambda inst: refute(inst, CUT), "refute"),
    (reference_winner, "solve"),
    (lambda inst: reference_winner(replace(inst, width=3)), "solve"),
], ids=["solve_winner_only", "solve_with_table", "refute",
        "reference_split_loop", "reference_generic"])
def test_a_search_too_deep_names_the_game_depth(search, task):
    # a one-point core under ``size_at_most 0`` is cut into itself every
    # round, one recursion level per round; the winner-only solve takes the
    # size shortcut, the solve with a table the value fill
    inst = u_instance(2, 3000, bound=0)
    with pytest.raises(CapacityError) as err:
        search(inst)
    assert str(err.value) == (f"game too deep to {task}: game.rounds = 3000 "
                              "exceeds the recursion limit")


def test_the_fill_recurses_once_per_round():
    # 600 rounds, one fill frame each, fit the default recursion limit;
    # a fill with a frame per pick position as well would need 1,200
    inst = u_instance(1, 600, bound=0)
    result = solve(inst)
    assert result.winner == CHOOSE
    assert (result.stats.states_visited, len(result.strategy.entries)) == \
        (1_200, 600)


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
        # the shape of the audit's Banach-Mazur bridge rows: weak, unbounded
        # width, cutting the start set
        "bridge": GameInstance(
            game_family=G_IDEAL, start=g6.full_mask, rounds=2, width=None,
            variant=WEAK, cut_current=False, ground=g6,
            family=MonotoneFamily.generated_by(g6, [0b010011, 0b001110])),
    }


# Winner, states visited and memo hits of a solve with a strategy, the memo
# hits when a budget of one state fewer trips, and the states visited and
# memo hits of a winner-only solve; ``solve --json`` prints the second and
# third, ``solve --no-strategy --json`` the last pair.
SOLVE_STATS = {
    "ladder m=6 size_at_most": (CUT, 124, 12, 3, (0, 0)),  # size shortcut
    "ladder m=6 generated_by": (CHOOSE, 473, 594, 259, (473, 261)),
    "G_ideal": (CHOOSE, 102, 80, 32, (102, 33)),
    "G_poset": (CHOOSE, 56, 49, 20, (56, 20)),
    "BM_ideal": (NONEMPTY, 35, 32, 12, (35, 13)),
    "bridge": (CHOOSE, 22_793, 1_958, 967, (22_793, 968)),
}


@pytest.mark.parametrize("name", sorted(SOLVE_STATS))
def test_solve_stats_and_budget_trip_are_pinned(name, monkeypatch):
    inst = _pinned_games()[name]
    winner, visited, hits, hits_at_trip, winner_only = SOLVE_STATS[name]
    result = solve(inst)
    assert (result.winner, result.stats.states_visited,
            result.stats.memo_hits) == (winner, visited, hits)
    result = solve(inst, want_strategy=False)
    assert (result.winner, result.stats.states_visited,
            result.stats.memo_hits) == (winner, *winner_only)
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


@st.composite
def small_games(draw):
    """A game of any family, variant, cut convention and maximality, small
    enough to solve in milliseconds."""
    game_family = draw(st.sampled_from([U, G_IDEAL, G_POSET, BM_IDEAL,
                                        BM_POSET]))
    kw = dict(rounds=draw(st.integers(1, 3)),
              variant=draw(st.sampled_from([EXACT, WEAK, STRICT_PREFIX])),
              maximal=draw(st.booleans()), cut_current=draw(st.booleans()),
              width=None if game_family in BM_GAMES else draw(
                  st.sampled_from([2, 3] if game_family == U
                                  else [2, 3, None])))
    if game_family in MASK_GAMES:
        ground = GroundSet(draw(st.integers(2, 5)))
        if draw(st.booleans()):
            family = MonotoneFamily.size_at_most(
                ground, draw(st.integers(1, ground.size - 1)))
        else:
            family = MonotoneFamily.generated_by(ground, draw(st.lists(
                st.integers(1, ground.full_mask - 1), min_size=1,
                max_size=2)))
        return GameInstance(game_family=game_family, start=ground.full_mask,
                            ground=ground, family=family, **kw)
    if draw(st.booleans()):
        algebra = FiniteBooleanAlgebra(GroundSet(draw(st.integers(1, 3))))
        return GameInstance(game_family=game_family, start=algebra.top,
                            algebra=algebra, **kw)
    labels = sorted(draw(st.sets(st.integers(1, 14), min_size=2, max_size=6)))
    poset = FinitePoset.from_subsets(labels + [15], len(labels))
    return GameInstance(game_family=game_family, start=len(labels),
                        poset=poset, **kw)


@given(small_games())
@settings(max_examples=120, deadline=None)
@seed(303)
def test_the_records_give_the_probing_walks_table(inst):
    # the winner's table read off the fill's records is the probing walk's
    # over a fresh fill, entry for entry and in order, and the memo hits the
    # probes would count are added all the same
    result = solve(inst)
    stats = SolveStats()
    value = _value_function(inst, stats, {})
    winner = value(initial_state(inst))
    probed = extract_strategy(inst, winner, value)
    assert result.winner == winner
    for table in (result.strategy, strategy_for(inst, winner)[1]):
        assert list(table.entries.items()) == list(probed.entries.items())
        assert (table.role, table.name) == (probed.role, probed.name)
    assert result.stats == stats


def _fill_and_read(value_function, inst, record):
    """The winner, counts and, if ``record``, the table of one fill and
    its records walk, or the ``CapacityError``'s text and stats."""
    stats = SolveStats()
    records = {} if record else None
    value = value_function(inst, stats, {}, records)
    try:
        winner = value(initial_state(inst))
        table = None
        if record:
            table = list(solver._recorded_strategy(
                inst, winner, records, stats).entries.items())
    except CapacityError as err:
        return str(err), err.stats
    return winner, stats.counts(), table


def _reachable(inst):
    """Every position reachable along canonical moves, terminal ones too."""
    seen = {initial_state(inst)}
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        if fill_oracle.terminal_status(inst, state).ongoing:
            for move in legal_moves(inst, state):
                child = apply_move(inst, state, move, check=False)
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
    return seen


@given(small_games(), st.data())
@settings(max_examples=150, deadline=None)
@seed(31)
def test_the_fill_keeps_the_per_position_references_results(inst, data):
    # the inline fill against the fill that expands every position through
    # apply_move and the referee written variant by variant: winner, counts
    # and table entries in order, with and without records, and the same
    # budget failure under a budget drawn below the states the fill visits
    for record in (False, True):
        expected = _fill_and_read(fill_oracle.value_function, inst, record)
        assert _fill_and_read(_value_function, inst, record) == expected
        budget = data.draw(st.integers(0, expected[1]["states_visited"] - 1))
        with mock.patch.object(solver, "DEFAULT_STATE_BUDGET", budget):
            expected = _fill_and_read(fill_oracle.value_function, inst, record)
            assert expected[0] == "state budget exceeded"
            assert _fill_and_read(_value_function, inst, record) == expected
    for state in _reachable(inst):
        outcome = terminal_status(inst, state)
        reference = fill_oracle.terminal_status(inst, state)
        assert (outcome.status, outcome.reason) == \
            (reference.status, reference.reason), state
