import json
from dataclasses import replace

import pytest

from cutchoose.engine import (BM_IDEAL, BM_POSET, CHOOSE, CUT, EMPTY, EXACT,
                              G_IDEAL, G_POSET, NONEMPTY, STRICT_PREFIX, U,
                              WEAK, FunctionStrategy, GameInstance, GameState,
                              Strategy, TableStrategy, apply_move,
                              copy_strategy,
                              core_positive, first_move_strategy,
                              fixed_point_choose_strategy,
                              greedy_picker_strategy, initial_state,
                              enumerate_playouts, legal_moves, play_out,
                              seeded_table_strategy, tabulate_strategy,
                              terminal_status, validate_move,
                              verify_winning_strategy)
from cutchoose.errors import (CapacityError, IllegalMoveError, StrategyError,
                              ValidationError)
from cutchoose.serialize import serialize_strategy, strategy_from_jsonable
from cutchoose.solver import reference_winner, solve
from cutchoose.structures import (FiniteBooleanAlgebra, FinitePoset,
                                  GroundSet, Ideal, MonotoneFamily,
                                  enumerate_cut_moves, format_mask,
                                  is_positive, sorted_masks, submasks)
from cutchoose.transforms import digit_split_cut_strategy
from cutchoose import analysis, engine, solver


def u_instance(m, rounds, width=2, variant=EXACT, bound=1, cut_current=True):
    g = GroundSet(m)
    return GameInstance(game_family=U, start=g.full_mask, rounds=rounds,
                        width=width, variant=variant, cut_current=cut_current,
                        ground=g, family=MonotoneFamily.size_at_most(g, bound))


# ---------------------------------------------------------------------------
# Instance invariants
# ---------------------------------------------------------------------------

def test_instance_invariants():
    g = GroundSet(3)
    fam = MonotoneFamily.size_at_most(g, 1)
    with pytest.raises(ValidationError):
        GameInstance(game_family=U, start=0b001, rounds=1, width=2,
                     ground=g, family=fam)  # start not positive
    with pytest.raises(ValidationError):
        GameInstance(game_family=U, start=0b111, rounds=1, width=None,
                     ground=g, family=fam)  # unbounded width for U
    with pytest.raises(ValidationError):
        GameInstance(game_family=U, start=0b111, rounds=1, width=1,
                     ground=g, family=fam)
    with pytest.raises(ValidationError):
        GameInstance(game_family=BM_IDEAL, start=0b111, rounds=1, width=4,
                     ground=g, family=fam)  # BM games take no width


@pytest.mark.parametrize("variant, maximal", [
    (EXACT, True), (WEAK, False), (STRICT_PREFIX, True)])
def test_a_set_games_bridge_is_the_weak_unbounded_cut_the_start_game(
        variant, maximal):
    g = GroundSet(4)
    fam = Ideal.generated_by(g, [0b0011])
    bm = GameInstance(game_family=BM_IDEAL, start=g.full_mask, rounds=3,
                      width=None, variant=variant, maximal=maximal,
                      ground=g, family=fam)
    assert engine.bridge_game(bm, 0b1100) == GameInstance(
        game_family=G_IDEAL, start=0b1100, rounds=3, width=None,
        variant=WEAK, maximal=True, cut_current=False, ground=g, family=fam)


@pytest.mark.parametrize("structure", [
    {"poset": FinitePoset.from_subsets([0b001, 0b010, 0b011, 0b111], 3)},
    {"algebra": FiniteBooleanAlgebra(GroundSet(3))}],
    ids=["poset", "algebra"])
def test_a_descent_games_bridge_is_the_exact_antichain_game(structure):
    (top,) = (s.top for s in structure.values())
    bm = GameInstance(game_family=BM_POSET, start=top, rounds=2, width=None,
                      **structure)
    assert engine.bridge_game(bm, 1) == GameInstance(
        game_family=G_POSET, start=1, rounds=2, width=None, variant=EXACT,
        maximal=True, cut_current=False, **structure)


def test_only_a_banach_mazur_game_has_a_bridge():
    with pytest.raises(ValidationError, match="U is not a Banach-Mazur game"):
        engine.bridge_game(u_instance(3, 1), 0b111)


# ---------------------------------------------------------------------------
# Legal moves
# ---------------------------------------------------------------------------

def test_legal_moves_u_round0():
    inst = u_instance(3, 1)
    moves = legal_moves(inst, initial_state(inst))
    assert len(moves) == 3


def test_legal_moves_bm_ideal():
    g = GroundSet(3)
    inst = GameInstance(game_family=BM_IDEAL, start=0b111, rounds=1,
                        width=None, ground=g,
                        family=MonotoneFamily.size_at_most(g, 1))
    state = GameState(0, NONEMPTY, 0b011, None)
    assert legal_moves(inst, state) == [0b011]


def test_legal_moves_g_ideal_includes_all_pairs():
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    inst = GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=1,
                        width=6, ground=g, family=fam)
    moves = legal_moves(inst, initial_state(inst))
    assert tuple(sorted_masks([3, 5, 9, 6, 10, 12])) in moves


def _cut_start_instances():
    """Games that cut their start set at every cut position."""
    g5 = GroundSet(5)
    return {
        "U": u_instance(5, 3, cut_current=False),
        "G_ideal": GameInstance(
            game_family=G_IDEAL, start=g5.full_mask, rounds=3, width=2,
            cut_current=False, ground=g5,
            family=MonotoneFamily.generated_by(g5, [0b00011, 0b01100])),
        "G_poset_poset": GameInstance(
            game_family=G_POSET, start=6, rounds=3, width=None,
            cut_current=False, poset=FinitePoset.from_subsets(
                [0b0001, 0b0010, 0b0100, 0b0011, 0b0110, 0b0111, 0b1111],
                6)),
        "G_poset_algebra": GameInstance(
            game_family=G_POSET, start=0b1111, rounds=2, width=3,
            cut_current=False, algebra=FiniteBooleanAlgebra(GroundSet(4))),
    }


CUT_START_GAMES = sorted(_cut_start_instances())


def _fresh_start_cuts(inst):
    return enumerate_cut_moves(
        None if inst.game_family == U else inst.structure, inst.start,
        inst.width, inst.maximal)


@pytest.mark.parametrize("name", CUT_START_GAMES)
def test_every_cut_position_offers_the_start_cuts(name, monkeypatch):
    inst = _cut_start_instances()[name]
    asked = []

    def record(inst_, state):
        moves = legal_moves(inst_, state)
        if state.pending is None:
            asked.append((state, moves))
        return moves

    monkeypatch.setattr(solver, "legal_moves", record)
    solve(inst)
    fresh = _fresh_start_cuts(inst)
    # the cut positions of the solve hold different cores and rounds
    assert len({(s.round, s.core) for s, _ in asked}) > 2
    for state, moves in asked:
        assert list(moves) == fresh, state


@pytest.mark.parametrize("name", CUT_START_GAMES)
def test_a_cut_the_start_game_enumerates_once(name, monkeypatch):
    calls = []
    real = engine.enumerate_cut_moves

    def count(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(engine, "enumerate_cut_moves", count)
    for rounds in (1, 2, 3, 4):
        inst = replace(_cut_start_instances()[name], rounds=rounds)
        calls.clear()
        winner, sigma = solver.strategy_for(inst, CUT)
        verify_winning_strategy(inst, sigma, CUT)
        reference_winner(inst)
        solve(inst)
        assert calls == [inst.start], rounds


def test_the_start_cuts_cannot_be_changed():
    inst = _cut_start_instances()["U"]
    moves = legal_moves(inst, initial_state(inst))
    assert moves is inst.start_cuts
    assert isinstance(moves, tuple)
    with pytest.raises(TypeError):
        moves[0] = moves[-1]
    assert list(moves) == _fresh_start_cuts(inst)
    # a game that cuts its current core enumerates per position, unkept
    chain = u_instance(5, 3)
    solve(chain)
    assert "start_cuts" not in vars(chain)


# ---------------------------------------------------------------------------
# Apply and terminal rules
# ---------------------------------------------------------------------------

def test_apply_move_examples():
    inst = u_instance(3, 2)
    st = initial_state(inst)
    st = apply_move(inst, st, (0b001, 0b110))
    assert st.pending == (0b001, 0b110)
    st = apply_move(inst, st, 0b110)
    assert st.core == 0b110 and st.round == 1 and st.pending is None

    alg = FiniteBooleanAlgebra(GroundSet(4))
    gp = GameInstance(game_family=G_POSET, start=alg.top, rounds=2, width=4,
                      cut_current=False, algebra=alg)
    st = initial_state(gp)
    st = apply_move(inst=gp, state=st, move=(0b0011, 0b1100))
    st = apply_move(gp, st, 0b0011)          # a v b
    st = apply_move(gp, st, (0b0101, 0b1010))
    st = apply_move(gp, st, 0b0101)          # a v c
    assert st.core == 0b0001                 # meet is the atom a

    g = GroundSet(3)
    bm = GameInstance(game_family=BM_IDEAL, start=0b111, rounds=1, width=None,
                      ground=g, family=MonotoneFamily.size_at_most(g, 1))
    st = initial_state(bm)
    st = apply_move(bm, st, 0b011)
    assert st.core == 0b011 and st.to_move == NONEMPTY and st.round == 0
    st = apply_move(bm, st, 0b011)
    assert st.round == 1


def test_terminal_examples():
    inst = u_instance(3, 1)
    final = GameState(1, CUT, 0b110, None)
    assert terminal_status(inst, final).status == CHOOSE

    weak = u_instance(6, 3, variant=WEAK)
    mid = GameState(1, CUT, 0b000010, None)
    out = terminal_status(weak, mid)
    assert out.status == CUT and "round 1" in out.reason

    g = GroundSet(4)
    bm = GameInstance(game_family=BM_IDEAL, start=g.full_mask, rounds=2,
                      width=None, ground=g,
                      family=MonotoneFamily.size_at_most(g, 1))
    t = play_out(bm, copy_strategy(bm), copy_strategy(bm))
    assert t.winner == NONEMPTY


def test_strict_prefix_is_shifted_exact():
    # implemented literally; equals the exact game one round shorter
    for m in (3, 4, 5, 6):
        for n in (1, 2, 3):
            strict = u_instance(m, n, variant=STRICT_PREFIX)
            winner = solve(strict, want_strategy=False).winner
            if n == 1:
                assert winner == CHOOSE
            else:
                exact = u_instance(m, n - 1)
                assert winner == solve(exact, want_strategy=False).winner


def _terminal_rules(inst, members, state):
    """The terminal rules written out from the games' definitions: the
    ``(status, reason)`` of a finished position, None while the game goes
    on.  ``members`` is the family's member set, or None where positive
    means nonzero."""
    rnd, core = state.round, state.core
    if inst.game_family in (BM_IDEAL, BM_POSET):
        # Both players shrink the current set for ``rounds`` rounds; a poset
        # element is never empty.
        if rnd < inst.rounds:
            return None
        if core != 0 or inst.poset is not None:
            return NONEMPTY, "final core nonempty"
        return EMPTY, "final core empty"
    if state.pending is not None:
        return None  # the picker still has to choose a piece
    positive = core != 0 if members is None else core not in members
    poset = inst.game_family == G_POSET
    if inst.variant == EXACT:
        # only the intersection after the last round counts
        if rnd < inst.rounds:
            return None
        if positive:
            return CHOOSE, ("choices have a common lower bound" if poset
                            else "final intersection positive")
        return CUT, ("choices have no common lower bound" if poset
                     else "final intersection in the family")
    # weak: every intersection after a pick must be positive; strict
    # prefix: every one before the last round
    checked = rnd < inst.rounds or inst.variant == WEAK
    if rnd >= 1 and checked and not positive:
        fell = ("lower-bound set vanished" if poset
                else "running intersection fell into the family")
        return CUT, f"{fell} at round {rnd}"
    if rnd < inst.rounds:
        return None
    return CHOOSE, ("survived every round" if inst.variant == WEAK
                    else "every proper prefix stayed positive")


def test_the_referee_follows_the_terminal_rules():
    # Every position reachable by canonical moves, the rules deciding where
    # a line ends, in corpus games of all five families (posets and
    # algebras) under each variant.
    checked = {}
    for item in analysis.generate_corpus(3, per_family=8):
        for variant in (EXACT, WEAK, STRICT_PREFIX):
            inst = replace(item.instance, variant=variant)
            members = (inst.family.explicit_members()
                       if inst.family is not None else None)
            seen = set()
            stack = [initial_state(inst)]
            while stack:
                state = stack.pop()
                if state in seen:
                    continue
                seen.add(state)
                expected = _terminal_rules(inst, members, state)
                outcome = terminal_status(inst, state)
                got = None if outcome.ongoing else (outcome.status,
                                                    outcome.reason)
                assert got == expected, (item.instance_id, variant, state)
                if expected is None:
                    stack.extend(apply_move(inst, state, m, check=False)
                                 for m in legal_moves(inst, state))
            key = (inst.game_family, inst.algebra is not None, variant)
            checked[key] = checked.get(key, 0) + len(seen)
    assert len(checked) == 7 * 3 and sum(checked.values()) > 5000


def _verdict_instance(variant, kind):
    if kind == "poset":
        return GameInstance(
            game_family=G_POSET, start=4, rounds=2, width=2, variant=variant,
            poset=FinitePoset.from_subsets(
                [0b001, 0b010, 0b011, 0b101, 0b111], 4))
    if kind == "bm":
        g = GroundSet(3)
        return GameInstance(game_family=BM_IDEAL, start=g.full_mask,
                            rounds=2, width=None, ground=g,
                            family=MonotoneFamily.size_at_most(g, 0))
    return u_instance(3, 2, variant=variant)


# (variant, structure, round, core, status, reason); a set core of one
# point lies in the family, an empty lower-bound set has vanished
@pytest.mark.parametrize("variant, kind, rnd, core, status, reason", [
    (EXACT, "set", 2, 0b011, CHOOSE, "final intersection positive"),
    (EXACT, "set", 2, 0b001, CUT, "final intersection in the family"),
    (EXACT, "poset", 2, 0b001, CHOOSE, "choices have a common lower bound"),
    (EXACT, "poset", 2, 0, CUT, "choices have no common lower bound"),
    (WEAK, "set", 2, 0b011, CHOOSE, "survived every round"),
    (WEAK, "set", 2, 0b001, CUT,
     "running intersection fell into the family at round 2"),
    (WEAK, "set", 1, 0b010, CUT,
     "running intersection fell into the family at round 1"),
    (WEAK, "poset", 2, 0b001, CHOOSE, "survived every round"),
    (WEAK, "poset", 2, 0, CUT, "lower-bound set vanished at round 2"),
    (STRICT_PREFIX, "set", 2, 0b011, CHOOSE,
     "every proper prefix stayed positive"),
    (STRICT_PREFIX, "set", 2, 0b001, CHOOSE,
     "every proper prefix stayed positive"),
    (STRICT_PREFIX, "set", 1, 0b001, CUT,
     "running intersection fell into the family at round 1"),
    (STRICT_PREFIX, "poset", 2, 0, CHOOSE,
     "every proper prefix stayed positive"),
    (STRICT_PREFIX, "poset", 1, 0, CUT, "lower-bound set vanished at round 1"),
    (EXACT, "bm", 2, 0b001, NONEMPTY, "final core nonempty"),
    (EXACT, "bm", 2, 0, EMPTY, "final core empty"),
])
def test_the_verdicts_read_as_pinned(variant, kind, rnd, core, status,
                                     reason):
    inst = _verdict_instance(variant, kind)
    to_move = EMPTY if kind == "bm" else CUT
    outcome = terminal_status(inst, GameState(rnd, to_move, core, None))
    assert (outcome.status, outcome.reason) == (status, reason)
    assert not outcome.ongoing


# ---------------------------------------------------------------------------
# Structural move validation
# ---------------------------------------------------------------------------

def test_validate_move_rules():
    inst = u_instance(3, 1)
    st = initial_state(inst)
    with pytest.raises(IllegalMoveError) as err:
        validate_move(inst, st, (0b001, 0b010))  # does not cover
    assert err.value.rule == "pieces-cover"
    with pytest.raises(IllegalMoveError) as err:
        validate_move(inst, st, (0b011, 0b110))  # overlap
    assert err.value.rule == "pieces-disjoint"
    # empty pieces are tolerated
    validate_move(inst, st, (0b111, 0))

    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    gi = GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=1,
                      width=6, ground=g, family=fam)
    with pytest.raises(IllegalMoveError) as err:
        validate_move(gi, initial_state(gi), (0b0011, 0b1100))
    assert err.value.rule == "maximality"
    loose = GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=1,
                         width=6, maximal=False, ground=g, family=fam)
    validate_move(loose, initial_state(loose), (0b0011, 0b1100))


def _cut_rule_cases():
    """One illegal cut per rule on each kind of structure, with the position
    it is played at: the start, or a round-1 cut of a smaller core."""
    u = u_instance(3, 2)
    g = GroundSet(4)
    gi = GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=2,
                      width=3, ground=g,
                      family=MonotoneFamily.size_at_most(g, 1))
    alg = FiniteBooleanAlgebra(GroundSet(3))
    ga = GameInstance(game_family=G_POSET, start=alg.top, rounds=2, width=2,
                      algebra=alg)
    p = FinitePoset.from_subsets([0b001, 0b010, 0b100, 0b011, 0b111], 4)
    gp = GameInstance(game_family=G_POSET, start=4, rounds=2, width=None,
                      poset=p)
    gp2 = replace(gp, width=2)
    low = GameState(1, CUT, 0b0111, None)
    return [
        (u, initial_state(u), 0b111),
        (u, initial_state(u), ()),
        (u, initial_state(u), (0b111, "x")),
        (u, initial_state(u), (0b1000, 0b111)),
        (u, initial_state(u), (0b011, 0b110)),
        (u, initial_state(u), (0b001, 0b010)),
        (u, initial_state(u), (0b001, 0b010, 0b100)),
        (gi, initial_state(gi), (0b0011, 0b0101, 0b1001, 0b0110)),
        (gi, initial_state(gi), (0b0011, 0b0011)),
        (gi, low, (0b0011, 0b1100)),
        (gi, initial_state(gi), (0b0001, 0b1110)),
        (gi, initial_state(gi), (0b0011, 0b0111)),
        (gi, initial_state(gi), (0b0011, 0b1100)),
        (gi, low, (0b0011,)),
        (ga, initial_state(ga), (0b001, 0b010, 0b100)),
        (ga, initial_state(ga), (0, 0b111)),
        (ga, initial_state(ga), (0b1000,)),
        (ga, initial_state(ga), (0b011, 0b110)),
        (ga, initial_state(ga), (0b001, 0b010)),
        (gp, initial_state(gp), (5,)),
        (gp, GameState(1, CUT, p.down[3], None), (2,)),
        (gp, initial_state(gp), (0, 0)),
        (gp, initial_state(gp), (0, 3)),
        (gp, initial_state(gp), (0,)),
        (gp2, initial_state(gp2), (0, 1, 2)),
    ]


# (message, rule) for each of _cut_rule_cases, in order.
CUT_RULE_PINS = [
    ("cut move must be a nonempty tuple of pieces [rule: cut-shape]",
     "cut-shape"),
    ("cut move must be a nonempty tuple of pieces [rule: cut-shape]",
     "cut-shape"),
    ("pieces must be subset masks [rule: cut-shape]", "cut-shape"),
    ("piece leaves the set being cut [rule: piece-inside-target]",
     "piece-inside-target"),
    ("pieces must be pairwise disjoint [rule: pieces-disjoint]",
     "pieces-disjoint"),
    ("pieces must cover the set being cut [rule: pieces-cover]",
     "pieces-cover"),
    ("more than 2 nonempty pieces [rule: width]", "width"),
    ("more than 3 pieces [rule: width]", "width"),
    ("duplicate pieces [rule: i-partition]", "i-partition"),
    ("piece {2,3} not contained in {0,1,2} [rule: i-partition]",
     "i-partition"),
    ("piece {0} is not positive [rule: i-partition]", "i-partition"),
    ("pieces {0,1} and {0,1,2} have a positive intersection "
     "[rule: i-partition]", "i-partition"),
    ("family is not maximal; witness {0,2} [rule: maximality]",
     "maximality"),
    ("family is not maximal; witness {0,2} [rule: maximality]",
     "maximality"),
    ("more than 2 elements [rule: width]", "width"),
    ("antichain elements must be nonzero [rule: antichain-nonzero]",
     "antichain-nonzero"),
    ("element not below the target [rule: antichain-below]",
     "antichain-below"),
    ("elements must be pairwise incompatible [rule: antichain]",
     "antichain"),
    ("antichain is not maximal below the target [rule: maximality]",
     "maximality"),
    ("element not below the target [rule: antichain-below]",
     "antichain-below"),
    ("element not below the target [rule: antichain-below]",
     "antichain-below"),
    ("elements must be pairwise incompatible [rule: antichain]",
     "antichain"),
    ("elements must be pairwise incompatible [rule: antichain]",
     "antichain"),
    ("antichain is not maximal below the target [rule: maximality]",
     "maximality"),
    ("more than 2 elements [rule: width]", "width"),
]


def test_every_cut_rule_reads_as_pinned():
    got = []
    for inst, state, move in _cut_rule_cases():
        with pytest.raises(IllegalMoveError) as err:
            validate_move(inst, state, move)
        got.append((str(err.value), err.value.rule))
    assert got == CUT_RULE_PINS


def test_choose_may_pick_family_member():
    # losing by the win condition, not by legality
    inst = u_instance(3, 1)
    st = initial_state(inst)
    st = apply_move(inst, st, (0b001, 0b110))
    st = apply_move(inst, st, 0b001)
    assert terminal_status(inst, st).status == CUT


# ---------------------------------------------------------------------------
# Playouts
# ---------------------------------------------------------------------------

def test_play_out_digit_split_vs_greedy():
    out = digit_split_cut_strategy(4, 2, 2)
    t = play_out(out.instance, out.strategy,
                 greedy_picker_strategy(out.instance))
    assert t.winner == CUT


def test_play_out_fixed_point_nonempty_family():
    g = GroundSet(4)
    inst = GameInstance(game_family=U, start=g.full_mask, rounds=3, width=2,
                        ground=g, family=MonotoneFamily.size_at_most(g, 0))
    v = verify_winning_strategy(inst, fixed_point_choose_strategy(0), CHOOSE)
    assert v.verified


def test_weak_two_points_one_round_always_cut():
    inst = u_instance(2, 1, variant=WEAK)
    moves = legal_moves(inst, initial_state(inst))
    assert moves == [(0b01, 0b10)]
    for sigma in (greedy_picker_strategy(inst), fixed_point_choose_strategy(0)):
        t = play_out(inst, FunctionStrategy(CUT, lambda i, s: (0b01, 0b10)),
                     sigma)
        assert t.winner == CUT


def test_fixed_point_counterexample_in_weak_variant():
    inst = u_instance(2, 1, variant=WEAK)
    v = verify_winning_strategy(inst, fixed_point_choose_strategy(0), CHOOSE)
    assert not v.verified
    # the counterexample splits off the fixed point
    cut_move = v.counterexample.moves[0][1]
    assert 0b01 in cut_move


def test_greedy_wins_every_maximal_generalized_game():
    corpus = analysis.generate_corpus(7, per_family=6)
    for item in corpus:
        inst = item.instance
        if inst.game_family != G_IDEAL:
            continue
        v = verify_winning_strategy(inst, greedy_picker_strategy(inst), CHOOSE)
        assert v.verified, item.instance_id


def test_strategy_error_carries_position():
    inst = u_instance(3, 1)

    def broken(inst_, state):
        raise StrategyError("no move")

    with pytest.raises(StrategyError) as err:
        play_out(inst, FunctionStrategy(CUT, broken),
                 greedy_picker_strategy(inst))
    assert "position" in str(err.value)


# ---------------------------------------------------------------------------
# Engine-level invariants
# ---------------------------------------------------------------------------

def test_canonicalization_soundness():
    # state-abstracted solving equals raw history recursion
    for m in (3, 4, 5, 6):
        for n in (1, 2, 3):
            for variant in (EXACT, WEAK):
                for cc in (True, False):
                    inst = u_instance(m, n, variant=variant, cut_current=cc)
                    assert solve(inst, want_strategy=False).winner == \
                        reference_winner(inst), (m, n, variant, cc)
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    for n in (1, 2):
        gi = GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=n,
                          width=6, cut_current=False, ground=g, family=fam)
        assert solve(gi, want_strategy=False).winner == reference_winner(gi)
    alg = FiniteBooleanAlgebra(GroundSet(3))
    gp = GameInstance(game_family=G_POSET, start=alg.top, rounds=2, width=3,
                      cut_current=False, algebra=alg)
    assert solve(gp, want_strategy=False).winner == reference_winner(gp)


def test_convention_invariance_small():
    corpus = analysis.generate_corpus(11, per_family=8)
    for item in corpus:
        inst = item.instance
        if inst.game_family not in (U, G_IDEAL, G_POSET):
            continue
        flipped = replace(inst, cut_current=not inst.cut_current)
        assert solve(inst, want_strategy=False).winner == \
            solve(flipped, want_strategy=False).winner, item.instance_id


def test_monotone_prefix_property_on_transcripts():
    # cores shrink; with a monotone family, final positivity forces
    # positivity of every prefix
    corpus = analysis.generate_corpus(3, per_family=8)
    for item in corpus:
        inst = item.instance
        if inst.game_family not in (U, G_IDEAL):
            continue
        sigma_cut = seeded_table_strategy(inst, CUT, 5)
        t = play_out(inst, sigma_cut, greedy_picker_strategy(inst))
        cores = [s.core for s in t.states if s.pending is None]
        for a, b in zip(cores, cores[1:]):
            assert b & ~a == 0
        if core_positive(inst, cores[-1]):
            assert all(core_positive(inst, c) for c in cores)


def test_table_strategy_round_trips_and_misses():
    inst = u_instance(4, 2)
    result = solve(inst)
    table = result.strategy
    assert isinstance(table, TableStrategy)
    with pytest.raises(StrategyError):
        table.decide(inst, GameState(9, CUT, 0b1, None), ())


def test_a_state_is_its_own_key():
    state = GameState(1, CHOOSE, 0b110, (0b010, 0b100))
    plain = (1, CHOOSE, 0b110, (0b010, 0b100))
    assert state == plain and hash(state) == hash(plain)
    assert GameState(0, CUT, 0b1) == (0, CUT, 0b1, None)


def test_a_parsed_table_answers_states_reached_by_apply_move():
    inst = u_instance(5, 2)
    result = solve(inst)
    parsed = strategy_from_jsonable(
        inst, json.loads(serialize_strategy(inst, result.strategy)))
    state, asked = initial_state(inst), 0
    while terminal_status(inst, state).ongoing:
        if state.to_move == result.winner:
            move = parsed.decide(inst, state, ())
            assert move == result.strategy.decide(inst, state, ())
            asked += 1
        else:
            move = legal_moves(inst, state)[-1]
        state = apply_move(inst, state, move)
    assert asked == 2
    assert verify_winning_strategy(inst, parsed, result.winner).verified


@pytest.mark.parametrize("family", [
    lambda g: MonotoneFamily.size_at_most(g, 1),
    lambda g: MonotoneFamily.generated_by(g, [0b000111, 0b011100]),
], ids=["size_at_most", "generated_by"])
def test_strategy_documents_round_trip_byte_for_byte(family):
    g = GroundSet(6)
    inst = GameInstance(game_family=U, start=g.full_mask, rounds=3, width=2,
                        ground=g, family=family(g))
    text = serialize_strategy(inst, solve(inst).strategy)
    assert serialize_strategy(
        inst, strategy_from_jsonable(inst, json.loads(text))) == text


def test_bm_poset_descent_to_least_element():
    # regression: a chain can bottom out at element index 0, which is still
    # a lower bound of everything played
    chain = FinitePoset.chain(3)
    inst = GameInstance(game_family=BM_POSET, start=2, rounds=2, width=None,
                        poset=chain)

    def drop(inst_, state):
        return 0

    t = play_out(inst, FunctionStrategy(EMPTY, drop), copy_strategy(inst))
    assert t.winner == NONEMPTY
    assert t.states[-1].core == 0


def test_poset_game_chain_convention():
    # under the chain convention antichains sit below the previous choice,
    # so choices descend and the picker trivially survives
    p = FinitePoset.from_subsets([0b001, 0b010, 0b011, 0b101, 0b111], 4)
    inst = GameInstance(game_family=G_POSET, start=4, rounds=2, width=2,
                        cut_current=True, poset=p)
    st = initial_state(inst)
    assert st.core == p.down[4]
    moves = legal_moves(inst, st)
    assert (4,) in moves
    t = play_out(inst, first_move_strategy(inst, CUT),
                 greedy_picker_strategy(inst))
    assert t.winner == CHOOSE
    assert solve(inst, want_strategy=False).winner == CHOOSE


from hypothesis import given, seed, settings, strategies as st


@st.composite
def small_instances(draw):
    from cutchoose.structures import FiniteBooleanAlgebra
    kind = draw(st.sampled_from([U, G_IDEAL, BM_IDEAL, G_POSET]))
    variant = draw(st.sampled_from([EXACT, WEAK, STRICT_PREFIX]))
    rounds = draw(st.integers(1, 2))
    cut_current = draw(st.booleans())
    if kind == G_POSET:
        alg = FiniteBooleanAlgebra(GroundSet(draw(st.integers(2, 3))))
        return GameInstance(game_family=kind, start=alg.top, rounds=rounds,
                            width=draw(st.sampled_from([2, 3, None])),
                            variant=variant, cut_current=cut_current,
                            algebra=alg)
    m = draw(st.integers(2, 5))
    g = GroundSet(m)
    bound = draw(st.integers(0, 1))
    fam = MonotoneFamily.size_at_most(g, bound)
    if bound >= m:
        fam = MonotoneFamily.size_at_most(g, 0)
    width = None if kind != U else draw(st.integers(2, 3))
    if kind == BM_IDEAL:
        cut_current = True
    return GameInstance(game_family=kind, start=g.full_mask, rounds=rounds,
                        width=width, variant=variant, cut_current=cut_current,
                        ground=g, family=fam)


@given(small_instances(), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
@seed(301)
def test_random_playout_invariants(inst, seed):
    # every canonical move is structurally valid; playouts are deterministic;
    # the winner is one of the instance's two roles
    state = initial_state(inst)
    for move in legal_moves(inst, state)[:20]:
        validate_move(inst, state, move)
    cut_side = seeded_table_strategy(inst, inst.cutter, seed)
    choose_side = seeded_table_strategy(inst, inst.picker, seed + 1)
    t1 = play_out(inst, cut_side, choose_side)
    t2 = play_out(inst, cut_side, choose_side)
    assert t1.moves == t2.moves and t1.winner == t2.winner
    assert t1.winner in (inst.cutter, inst.picker)
    assert t1.reason
    # mask-game cores weakly shrink across picks
    if inst.game_family in (U, G_IDEAL):
        cores = [s.core for s in t1.states if s.pending is None]
        for a, b in zip(cores, cores[1:]):
            assert b & ~a == 0


# ---------------------------------------------------------------------------
# The two strategy walks
# ---------------------------------------------------------------------------

def g_ideal_instance():
    g = GroundSet(5)
    fam = MonotoneFamily.generated_by(g, [0b00011, 0b01100])
    return GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=1,
                        width=2, cut_current=False, ground=g, family=fam)


@pytest.mark.parametrize("inst", [u_instance(5, 2), g_ideal_instance()])
def test_tabulating_a_solver_table_reproduces_it(inst):
    result = solve(inst)
    table = tabulate_strategy(inst, result.strategy, result.winner)
    assert list(table.entries.items()) == \
        list(result.strategy.entries.items())


def test_tabulated_history_dependent_strategy_verifies():
    from cutchoose.transforms import (disjointify_choose_strategy,
                                      source_instance)
    g_inst = g_ideal_instance()
    result = solve(source_instance("disjointify_choose", g_inst))
    assert result.winner == CHOOSE
    out = disjointify_choose_strategy(result.strategy, g_inst)
    table = tabulate_strategy(out.instance, out.strategy, CHOOSE)
    assert table.entries
    assert verify_winning_strategy(out.instance, table, CHOOSE).verified


def test_verify_counterexample_and_nodes_are_pinned():
    # ``nodes`` and the counterexample are printed by ``verify --json``.
    inst = u_instance(5, 2)
    v = verify_winning_strategy(inst, first_move_strategy(inst, CUT), CUT)
    assert not v.verified and v.nodes == 9
    t = v.counterexample
    assert t.moves == [(CUT, (1, 30)), (CHOOSE, 30), (CUT, (2, 28)),
                       (CHOOSE, 28)]
    assert [tuple(s) for s in t.states] == [
        (0, CUT, 31, None), (0, CHOOSE, 31, (1, 30)), (1, CUT, 30, None),
        (1, CHOOSE, 30, (2, 28)), (2, CUT, 28, None)]
    assert (t.winner, t.reason) == (CHOOSE, "final intersection positive")


def _walk_instances():
    g4, g5, g6 = GroundSet(4), GroundSet(5), GroundSet(6)
    return {
        "U": GameInstance(
            game_family=U, start=g6.full_mask, rounds=3, width=2, ground=g6,
            family=MonotoneFamily.generated_by(g6, [0b000111, 0b011100])),
        "U_cut_start": GameInstance(
            game_family=U, start=g5.full_mask, rounds=2, width=3,
            cut_current=False, ground=g5,
            family=MonotoneFamily.generated_by(g5, [0b00011, 0b01100])),
        "G_ideal": GameInstance(
            game_family=G_IDEAL, start=g5.full_mask, rounds=3, width=2,
            ground=g5,
            family=MonotoneFamily.generated_by(g5, [0b00011, 0b01100])),
        "G_poset_algebra": GameInstance(
            game_family=G_POSET, start=0b1111, rounds=2, width=3,
            algebra=FiniteBooleanAlgebra(g4)),
        "G_poset_poset": GameInstance(
            game_family=G_POSET, start=6, rounds=3, width=None,
            cut_current=False, poset=FinitePoset.from_subsets(
                [0b0001, 0b0010, 0b0100, 0b0011, 0b0110, 0b0111, 0b1111],
                6)),
        "BM_ideal": GameInstance(
            game_family=BM_IDEAL, start=g4.full_mask, rounds=3, width=None,
            ground=g4, family=MonotoneFamily.generated_by(g4, [0b0010])),
        "BM_poset": GameInstance(
            game_family=BM_POSET, start=4, rounds=3, width=None,
            poset=FinitePoset.from_subsets(
                [0b001, 0b010, 0b011, 0b101, 0b111], 4)),
        "BM_poset_algebra": GameInstance(
            game_family=BM_POSET, start=0b111, rounds=2, width=None,
            algebra=FiniteBooleanAlgebra(GroundSet(3))),
    }


class Unmemoized(Strategy):
    """``sigma`` (positional) behind a stage that is not ``None``, so the
    tree walk memoizes nothing and asks it at every node."""

    def __init__(self, sigma):
        super().__init__(sigma.role, sigma.name)
        self.sigma = sigma

    def start(self):
        return ()

    def decide(self, inst, state, stage):
        return self.sigma.decide(inst, state, None)


class CountingTable(TableStrategy):
    def __init__(self, table):
        super().__init__(table.role, table.entries)
        self.calls = 0

    def decide(self, inst, state, stage):
        self.calls += 1
        return super().decide(inst, state, stage)


def test_verifying_a_table_asks_each_position_once():
    inst = _walk_instances()["U"]
    result = solve(inst)
    reached = tabulate_strategy(inst, result.strategy, result.winner)
    sigma = CountingTable(result.strategy)
    v = verify_winning_strategy(inst, sigma, result.winner)
    assert v.verified
    assert sigma.calls == len(reached.entries) < v.nodes


def _tables(inst):
    """Seeded tables for both roles, the solver's table, and tables that
    change one of the last positions it reaches (first moves below that),
    so a loss can come after the walk has met positions again."""
    winning = solve(inst).strategy
    role = winning.role
    for r in (inst.cutter, inst.picker):
        for seed in range(3):
            yield tabulate_strategy(inst, seeded_table_strategy(inst, r, seed),
                                    r)
    yield winning
    first = first_move_strategy(inst, role)
    for state in list(winning.entries)[-3:]:
        for move in legal_moves(inst, state)[:3]:
            if move == winning.entries[state]:
                continue
            changed = {**winning.entries, state: move}

            def fn(inst_, s, changed=changed):
                if s in changed:
                    return changed[s]
                return first.decide(inst_, s, None)

            yield tabulate_strategy(inst, FunctionStrategy(role, fn), role)


def _verdict(inst, sigma, role, budget=2_000_000):
    try:
        v = verify_winning_strategy(inst, sigma, role, node_budget=budget)
    except (StrategyError, IllegalMoveError, CapacityError) as exc:
        return type(exc), str(exc)
    t = v.counterexample
    return v.verified, v.nodes, t and (t.moves, t.states, t.winner, t.reason)


def test_verify_pins_hold_for_a_positional_table():
    # the pinned verdict above, reached through the memoized walk
    inst = u_instance(5, 2)
    first = first_move_strategy(inst, CUT)
    verdict = _verdict(inst, tabulate_strategy(inst, first, CUT), CUT)
    assert verdict == _verdict(inst, first, CUT) and verdict[1] == 9


def _asked(sigma):
    """A ``FunctionStrategy`` of ``sigma``'s function, and the positions
    it is asked at."""
    asked = []

    def fn(inst_, state):
        asked.append(state)
        return sigma.fn(inst_, state)

    return FunctionStrategy(sigma.role, fn, sigma.name), asked


def test_verifying_a_function_strategy_asks_each_position_once():
    # A function of the position is positional, so the walk memoizes it as
    # it does a table: the pinned first-move verdict above, and the greedy
    # picker's win, whose plain walk asks it 219 times
    inst = u_instance(5, 2)
    first = first_move_strategy(inst, CUT)
    sigma, asked = _asked(first)
    verdict = _verdict(inst, sigma, CUT)
    assert sigma.start() is None and verdict[1] == 9
    assert verdict == _verdict(inst, Unmemoized(first), CUT)
    assert len(asked) == len(set(asked)) == 3
    inst = _walk_instances()["G_ideal"]
    greedy = greedy_picker_strategy(inst)
    sigma, asked = _asked(greedy)
    assert _verdict(inst, sigma, CHOOSE)[:2] == (True, 439)
    reached = tabulate_strategy(inst, greedy, CHOOSE)
    assert len(asked) == len(set(asked)) == len(reached.entries) == 87


@pytest.mark.parametrize("name", sorted(_walk_instances()))
def test_memoized_walk_matches_the_tree_walk(name):
    inst = _walk_instances()[name]
    for table in _tables(inst):
        role = table.role
        plain = Unmemoized(table)
        assert plain.start() is not None
        verdict = _verdict(inst, table, role)
        assert verdict == _verdict(inst, plain, role)
        nodes = verdict[1]
        for sigma in (table, plain):
            assert _verdict(inst, sigma, role, nodes)[:2] == verdict[:2]
        assert _verdict(inst, plain, role, nodes - 1)[0] is CapacityError
        # The budget counts positions walked, a memo hit costing one: the
        # table's walk fits below its node count exactly where the memo
        # skipped a subtree, and with it a question to the table.
        memoized, asked = CountingTable(table), CountingTable(table)
        _verdict(inst, memoized, role)
        _verdict(inst, Unmemoized(asked), role)
        tight = _verdict(inst, table, role, nodes - 1)
        if memoized.calls < asked.calls:
            assert tight == verdict
        else:
            assert tight[0] is CapacityError
        # a missing entry and an illegal move: the same first error
        entries = list(table.entries.items())
        for broken in (dict(entries[:-1]),
                       dict(entries[:-1] + [(entries[-1][0], -1)])):
            bad = TableStrategy(role, broken)
            got = _verdict(inst, bad, role)
            assert got == _verdict(inst, Unmemoized(bad), role)


def test_a_table_walk_trips_on_positions_walked_not_tree_nodes():
    # the solver's table on the 6-point U game: 1,267 tree nodes, 637
    # positions walked
    inst = _walk_instances()["U"]
    table = solve(inst).strategy
    assert _verdict(inst, table, CHOOSE, 637)[:2] == (True, 1267)
    assert _verdict(inst, table, CHOOSE, 636)[0] is CapacityError


def test_playouts_cover_every_adversary_line():
    inst = u_instance(5, 2)
    runs = enumerate_playouts(inst, first_move_strategy(inst, CUT), CUT)
    assert len(runs) == 3
    assert len({tuple(t.moves) for t in runs}) == 3
    assert all(not terminal_status(inst, t.states[-1]).ongoing
               for t in runs)


def test_every_walk_fails_loudly_on_a_tiny_budget(monkeypatch):
    inst = u_instance(5, 2)
    sigma = first_move_strategy(inst, CUT)
    with pytest.raises(CapacityError):
        verify_winning_strategy(inst, sigma, CUT, node_budget=3)
    with pytest.raises(CapacityError):
        enumerate_playouts(inst, sigma, CUT, node_budget=3)
    with pytest.raises(CapacityError):
        tabulate_strategy(inst, sigma, CUT, node_budget=1)
    monkeypatch.setattr(solver, "DEFAULT_STATE_BUDGET", 1)
    with pytest.raises(CapacityError) as err:
        solver.extract_strategy(inst, CUT, lambda state: CHOOSE)
    assert err.value.stats == {"states_visited": 2}


def test_seeded_strategy_ignores_pythonhashseed():
    import os
    import subprocess
    import sys
    script = (
        "from cutchoose.engine import *\n"
        "from cutchoose.structures import GroundSet, MonotoneFamily\n"
        "g = GroundSet(6)\n"
        "inst = GameInstance(game_family=U, start=g.full_mask, rounds=2,\n"
        "    width=3, ground=g, family=MonotoneFamily.size_at_most(g, 1))\n"
        "cut = seeded_table_strategy(inst, CUT, 5)\n"
        "pick = seeded_table_strategy(inst, CHOOSE, 6)\n"
        "print(play_out(inst, cut, pick).moves)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        analysis.__file__)))
    outs = set()
    for hashseed in ("0", "1", "7"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        outs.add(proc.stdout)
    assert len(outs) == 1


@st.composite
def algebra_games(draw):
    """An algebra game of 1-4 atoms and its twin over the trivial ideal."""
    atoms = GroundSet(draw(st.integers(1, 4)))
    bm = draw(st.booleans())
    common = dict(start=draw(st.integers(1, atoms.full_mask)),
                  rounds=draw(st.integers(1, 3)),
                  width=None if bm else draw(st.sampled_from([2, 3, None])),
                  variant=draw(st.sampled_from([EXACT, WEAK, STRICT_PREFIX])),
                  maximal=draw(st.booleans()),
                  cut_current=draw(st.booleans()))
    algebra = GameInstance(game_family=BM_POSET if bm else G_POSET,
                           algebra=FiniteBooleanAlgebra(atoms), **common)
    ideal = GameInstance(game_family=BM_IDEAL if bm else G_IDEAL,
                         ground=atoms, family=Ideal.size_at_most(atoms, 0),
                         **common)
    return algebra, ideal


@given(algebra_games())
@settings(max_examples=200, deadline=None)
@seed(302)
def test_an_algebra_game_plays_as_its_trivial_ideal(games):
    # the closed-form cut rules of an algebra give the family's moves: same
    # winner, same tables entry for entry, same moves at every position
    algebra, ideal = games
    got, want = solve(algebra), solve(ideal)
    assert got.winner == want.winner
    loser = algebra.opponent(got.winner)
    for got, want in ((got.strategy, want.strategy),
                      (solver.strategy_for(algebra, loser)[1],
                       solver.strategy_for(ideal, loser)[1])):
        assert list(got.entries.items()) == list(want.entries.items())
        for state in got.entries:
            assert legal_moves(algebra, state) == legal_moves(ideal, state)


def test_an_illegal_bm_move_on_an_algebra_reads_as_on_its_ideal():
    g = GroundSet(3)
    inst = GameInstance(game_family=BM_POSET, start=0b011, rounds=2,
                        width=None, algebra=FiniteBooleanAlgebra(g))
    state = initial_state(inst)
    got = []
    for move in (0, (0b001,), 0b100):
        with pytest.raises(IllegalMoveError) as err:
            validate_move(inst, state, move)
        got.append(str(err.value))
    assert got == ["move must be I-positive [rule: bm-positive]",
                   "move must be a subset mask [rule: bm-move-shape]",
                   "move must be a subset of the current set "
                   "[rule: bm-decreasing]"]
