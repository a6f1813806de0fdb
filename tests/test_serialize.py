"""Strategy documents: the fixed-shape writer against an oracle that builds
the document from the schema alone for the generic encoder, and the parser
against the table it came from."""

import functools
import json

from hypothesis import given, seed, settings, strategies as st

from cutchoose import serialize
from cutchoose.engine import (BM_IDEAL, BM_POSET, CHOOSE, CUT, G_IDEAL,
                              G_POSET, U, GameInstance, GameState,
                              TableStrategy, seeded_table_strategy,
                              tabulate_strategy)
from cutchoose.serialize import (dumps, serialize_strategy,
                                 strategy_from_jsonable)
from cutchoose.solver import solve
from cutchoose.structures import (FiniteBooleanAlgebra, FinitePoset,
                                  GroundSet, Ideal, MonotoneFamily)

_G4, _G5 = GroundSet(4), GroundSet(5)
_POSET = FinitePoset.from_subsets([0b001, 0b010, 0b011, 0b101, 0b111], 4)

# name -> (instance, cores are masks, moves are masks)
GAMES = {
    "U": (GameInstance(
        game_family=U, start=_G5.full_mask, rounds=2, width=2, ground=_G5,
        family=MonotoneFamily.generated_by(_G5, [0b00011, 0b01100])),
        True, True),
    "G_ideal": (GameInstance(
        game_family=G_IDEAL, start=_G4.full_mask, rounds=2, width=2,
        ground=_G4, family=Ideal.size_at_most(_G4, 1)), True, True),
    "BM_ideal": (GameInstance(
        game_family=BM_IDEAL, start=_G4.full_mask, rounds=2, width=None,
        ground=_G4, family=MonotoneFamily.generated_by(_G4, [0b0010])),
        True, True),
    "G_poset_poset": (GameInstance(
        game_family=G_POSET, start=4, rounds=2, width=None,
        cut_current=False, poset=_POSET), True, False),
    "G_poset_algebra": (GameInstance(
        game_family=G_POSET, start=0b111, rounds=2, width=3,
        algebra=FiniteBooleanAlgebra(GroundSet(3))), True, True),
    "BM_poset": (GameInstance(
        game_family=BM_POSET, start=4, rounds=3, width=None, poset=_POSET),
        False, False),
}


def _size(inst):
    if inst.ground is not None:
        return inst.ground.size
    return inst.algebra.atoms.size if inst.algebra else inst.poset.size


def _mask_text(mask):
    return "{" + ",".join(str(i) for i in range(mask.bit_length())
                          if mask >> i & 1) + "}"


def strategy_to_jsonable(inst, strategy):
    """The oracle of the writer: the strategy document as plain values,
    built from the schema alone.  Entries are in state order, a null
    ``pending`` sorting as an empty list."""
    moves_are_masks = inst.poset is None
    cores_are_masks = moves_are_masks or inst.game_family == G_POSET

    def move(mv):
        if isinstance(mv, tuple):
            return [move(p) for p in mv]
        return _mask_text(mv) if moves_are_masks else mv

    def order(state):
        return (*state[:3], () if state.pending is None else state.pending)

    return {"schema_version": 1, "role": strategy.role, "kind": strategy.kind,
            "entries": [
                {"state": {"round": s.round, "to_move": s.to_move,
                           "core": (_mask_text(s.core) if cores_are_masks
                                    else s.core),
                           "pending": (None if s.pending is None
                                       else move(s.pending))},
                 "move": move(strategy.entries[s])}
                for s in sorted(strategy.entries, key=order)]}


@functools.lru_cache(maxsize=None)
def _game_table(name, role_index, seed):
    inst = GAMES[name][0]
    role = (inst.cutter, inst.picker)[role_index]
    if seed < 0:
        return solve(inst).strategy.entries
    return tabulate_strategy(inst, seeded_table_strategy(inst, role, seed),
                             role).entries


def _assert_round_trip(inst, table):
    text = serialize_strategy(inst, table)
    assert text == dumps(strategy_to_jsonable(inst, table))
    parsed = strategy_from_jsonable(inst, json.loads(text))
    assert parsed.role == table.role
    assert parsed.entries == table.entries
    return text


@given(st.sampled_from(sorted(GAMES)), st.integers(0, 1), st.integers(-1, 3),
       st.data())
@settings(max_examples=80, deadline=None)
@seed(201)
def test_a_played_table_round_trips(name, role_index, seed, data):
    # tables the engine makes, for either role and any subset of positions
    # (the empty table included); seed -1 is the solver's table
    inst = GAMES[name][0]
    full = _game_table(name, role_index, seed)
    keep = data.draw(st.lists(st.booleans(), min_size=len(full),
                              max_size=len(full)))
    entries = {s: m for (s, m), k in zip(full.items(), keep) if k}
    role = (inst.cutter, inst.picker)[role_index]
    _assert_round_trip(inst, TableStrategy(role, entries))


def _leaves(inst, masks):
    if masks:
        return st.integers(0, (1 << _size(inst)) - 1)
    # a parsed poset move may be any integer; a JSON ``true`` is refused
    return st.integers(-3, 30)


def _moves(leaf):
    return st.recursive(leaf, lambda inner: st.lists(inner, max_size=3)
                        .map(tuple), max_leaves=6)


@st.composite
def _arbitrary_tables(draw):
    # entries no solver makes: nested piece lists, any text for the role
    # and for ``to_move``, and a null and a list ``pending`` for one core
    name = draw(st.sampled_from(sorted(GAMES)))
    inst, core_masks, move_masks = GAMES[name]
    leaf = _leaves(inst, move_masks)
    core = (st.integers(0, (1 << _size(inst)) - 1) if core_masks
            else st.integers(-3, 30))
    keys = draw(st.lists(st.tuples(st.integers(-1, 4),
                                   st.sampled_from([CUT, CHOOSE]) | st.text(
                                       max_size=3), core),
                         unique=True, max_size=8))
    entries = {}
    for rnd, to_move, at in keys:
        pending = draw(st.none() | _moves(leaf).map(
            lambda m: m if isinstance(m, tuple) else (m,)))
        entries[GameState(rnd, to_move, at, pending)] = draw(_moves(leaf))
        if pending is not None and draw(st.booleans()):
            entries[GameState(rnd, to_move, at, None)] = draw(_moves(leaf))
    return inst, TableStrategy(draw(st.text(max_size=4)), entries)


@given(_arbitrary_tables())
@settings(max_examples=150, deadline=None)
@seed(202)
def test_an_arbitrary_table_round_trips(drawn):
    _assert_round_trip(*drawn)


def test_a_parsed_table_with_null_and_list_pending_for_one_core():
    inst = GAMES["U"][0]
    state = {"round": 1, "to_move": CHOOSE, "core": "{0,1,2}"}
    doc = {"schema_version": 1, "role": CHOOSE, "kind": "positional_table",
           "entries": [
               {"state": {**state, "pending": ["{0}", "{1,2}"]},
                "move": "{0}"},
               {"state": {**state, "pending": None}, "move": "{1,2}"}]}
    table = strategy_from_jsonable(inst, doc)
    assert len(table.entries) == 2
    text = _assert_round_trip(inst, table)
    # the null ``pending`` sorts as an empty list, so before the other
    assert text.index('"pending": null') < text.index('"pending": [')


def test_the_empty_table_is_an_empty_list():
    inst = GAMES["BM_poset"][0]
    text = _assert_round_trip(inst, TableStrategy(CUT, {}))
    assert text.endswith('"entries": []\n}\n')


def _counting(monkeypatch, name):
    """The arguments of each call of ``serialize.<name>`` from now on."""
    calls = []
    real = getattr(serialize, name)

    def counted(*args):
        calls.append(args[0])
        return real(*args)
    monkeypatch.setattr(serialize, name, counted)
    return calls


def test_each_mask_is_written_and_read_once(monkeypatch):
    # the ladder's m = 8 generated_by game, its generators unplaced: the
    # 3,552 entries hold 14,206 masks, 255 of them distinct
    ground = GroundSet(8)
    inst = GameInstance(
        game_family=U, start=ground.full_mask, rounds=3, width=2,
        ground=ground,
        family=MonotoneFamily.generated_by(ground, [0b1111, 0b1111000]))
    table = solve(inst).strategy
    assert len(table.entries) == 3552
    masks = set()
    for state, move in table.entries.items():
        masks.update((state.core,) + (state.pending or ()) + (
            move if isinstance(move, tuple) else (move,)))
    formatted = _counting(monkeypatch, "format_mask")
    text = serialize_strategy(inst, table)
    assert sorted(formatted) == sorted(masks)
    parsed = _counting(monkeypatch, "parse_mask")
    assert strategy_from_jsonable(inst, json.loads(text)).entries == \
        table.entries
    assert sorted(parsed) == sorted(map(_mask_text, masks))
