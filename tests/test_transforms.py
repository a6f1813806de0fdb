import cProfile
import hashlib
import json
import pstats
import tracemalloc
from dataclasses import replace

import pytest

from cutchoose import analysis, serialize, transforms as tr
from cutchoose.engine import (BM_IDEAL, CHOOSE, CUT, EMPTY, G_IDEAL, G_POSET,
                              NONEMPTY, U, WEAK, FunctionStrategy,
                              GameInstance, Run, Strategy, Transcript,
                              apply_move, copy_strategy, enumerate_playouts,
                              first_move_strategy, greedy_picker_strategy,
                              initial_state, legal_moves, play_out,
                              seeded_table_strategy, stage_after,
                              verify_winning_strategy)
from cutchoose.errors import (CapacityError, SigmaSearchError,
                              TransformSoundnessError, ValidationError)
from cutchoose.solver import solve
from cutchoose.structures import (FiniteBooleanAlgebra, GroundSet, Ideal,
                                  MonotoneFamily, enumerate_i_partitions,
                                  format_mask, is_positive, mask_of,
                                  sorted_masks, submasks)

from branch_oracle import find_branch


class Historied(Strategy):
    """A strategy given as ``fn(inst, state, history)``, its stage the tuple
    of the history's entries: a stand-in for a strategy that reads the
    history, so no walk takes it for positional."""

    def __init__(self, role, fn, name="historied"):
        super().__init__(role, name)
        self.fn = fn

    def start(self):
        return ()

    def step(self, stage, entry):
        return stage + (entry,)

    def decide(self, inst, state, stage):
        return self.fn(inst, state, stage)


def u_instance(m, rounds, width=2, bound=1):
    g = GroundSet(m)
    return GameInstance(game_family=U, start=g.full_mask, rounds=rounds,
                        width=width, ground=g,
                        family=MonotoneFamily.size_at_most(g, bound))


def g_ideal(m, rounds, width, bound=1):
    g = GroundSet(m)
    return GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=rounds,
                        width=width, cut_current=False, ground=g,
                        family=MonotoneFamily.size_at_most(g, bound))


def bm_ideal(m, rounds, bound=1):
    g = GroundSet(m)
    return GameInstance(game_family=BM_IDEAL, start=g.full_mask,
                        rounds=rounds, width=None, ground=g,
                        family=MonotoneFamily.size_at_most(g, bound))


def assert_all_hold(out, budget=500_000):
    certs = tr.certify_playouts(out, node_budget=budget)
    assert certs, "no playouts enumerated"
    bad = [c for c in certs if not c.holds]
    assert not bad, bad[0].details
    return certs


# ---------------------------------------------------------------------------
# Digit splitting
# ---------------------------------------------------------------------------

def test_digit_split_binary_and_ternary():
    for m, nu, n in ((4, 2, 2), (2, 2, 1), (9, 3, 2), (8, 2, 3)):
        out = tr.digit_split_cut_strategy(m, nu, n)
        assert verify_winning_strategy(out.instance, out.strategy,
                                       CUT).verified, (m, nu, n)


def test_digit_split_threshold_sharpness():
    for nu, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ok = nu ** n
        tr.digit_split_cut_strategy(ok, nu, n)
        with pytest.raises(ValidationError):
            tr.digit_split_cut_strategy(ok + 1, nu, n)
        inst = u_instance(ok + 1, n, width=nu)
        assert solve(inst, want_strategy=False).winner == CHOOSE


# ---------------------------------------------------------------------------
# Restriction along an embedding
# ---------------------------------------------------------------------------

def test_restrict_choose_strategy_transfers_win():
    inner = u_instance(5, 2)
    res = solve(inner)
    outer = u_instance(8, 2)
    for emb in ((0, 1, 2, 3, 4), (1, 3, 5, 6, 7)):
        out = tr.restrict_choose_strategy(res.strategy, inner, outer, emb)
        assert verify_winning_strategy(outer, out.strategy, CHOOSE).verified
        assert_all_hold(out)


def test_restrict_rejects_incompatible_families():
    inner = u_instance(3, 1)
    g = GroundSet(5)
    outer = GameInstance(game_family=U, start=g.full_mask, rounds=1, width=2,
                         ground=g, family=MonotoneFamily.size_at_most(g, 2))
    res = solve(inner)
    with pytest.raises(ValidationError):
        tr.restrict_choose_strategy(res.strategy, inner, outer, (0, 1, 2))


# ---------------------------------------------------------------------------
# Disjointification
# ---------------------------------------------------------------------------

def test_disjointify_choose_transports_win():
    g_inst = g_ideal(5, 1, width=2)
    u_inst = tr.source_instance("disjointify_choose", g_inst)
    res = solve(u_inst)
    assert res.winner == CHOOSE
    out = tr.disjointify_choose_strategy(res.strategy, g_inst)
    assert verify_winning_strategy(g_inst, out.strategy, CHOOSE).verified
    assert_all_hold(out)


def test_disjointify_choose_fixed_point_nonempty_family():
    # the picker that protects one point keeps it through the simulation
    g_inst = g_ideal(4, 2, width=None, bound=0)
    from cutchoose.transforms import fixed_point_choose_strategy
    out = tr.disjointify_choose_strategy(fixed_point_choose_strategy(0),
                                         g_inst)
    t = play_out(g_inst, first_move_strategy(g_inst, CUT), out.strategy)
    assert t.states[-1].core & 1
    assert_all_hold(out)


def test_disjointify_choose_random_tables_certify():
    g_inst = g_ideal(4, 2, width=6)
    u_inst = tr.source_instance("disjointify_choose", g_inst)
    for seed in range(3):
        sigma = seeded_table_strategy(u_inst, CHOOSE, seed)
        out = tr.disjointify_choose_strategy(sigma, g_inst)
        assert_all_hold(out)


def test_disjointify_cut_certificates_and_containment():
    g_inst = g_ideal(4, 2, width=6)
    sigma = first_move_strategy(g_inst, CUT)
    out = tr.disjointify_cut_strategy(sigma, g_inst)
    certs = assert_all_hold(out)
    # containment is strict on at least one playout of some instance
    strict = [c for c in certs
              if c.details["u_core"] != c.details["aux_pick_core"]]
    assert strict


def test_disjointify_cut_identity_like():
    g_inst = g_ideal(4, 2, width=None)

    def always_whole(inst_, state):
        return (g_inst.start,)

    out = tr.disjointify_cut_strategy(
        FunctionStrategy(CUT, always_whole, name="whole"), g_inst)
    t = play_out(out.instance, out.strategy,
                 greedy_picker_strategy(out.instance))
    played = [m for role, m in t.moves if role == CUT]
    assert played[0] == (g_inst.start,)
    assert played[1] == (g_inst.start, 0)
    cert = out.certify(t)
    assert cert.holds
    assert cert.details["u_core"] == cert.details["aux_pick_core"]


# ---------------------------------------------------------------------------
# Factorization and width transfer
# ---------------------------------------------------------------------------

def test_factor_antichain_atoms():
    alg = FiniteBooleanAlgebra(GroundSet(4))
    fr = tr.factor_antichain(alg, alg.top, [1, 2, 4, 8], 2, 2)
    assert fr.levels[0] == tuple(sorted_masks([0b0011, 0b1100]))
    assert fr.levels[1] == tuple(sorted_masks([0b0101, 0b1010]))
    assert fr.recover((0, 0)) == 1  # (a v b) ^ (a v c) = a


def test_factor_antichain_rejects_degenerate():
    alg = FiniteBooleanAlgebra(GroundSet(4))
    with pytest.raises(ValidationError):
        tr.factor_antichain(alg, alg.top, [alg.top], 2, 0)
    with pytest.raises(ValidationError):
        tr.factor_antichain(alg, alg.top, [1, 2, 4, 8, 3], 2, 2)


def test_factor_antichain_random_partitions():
    import random
    rng = random.Random(99)
    alg = FiniteBooleanAlgebra(GroundSet(16))
    for _ in range(20):
        # random partition of the 16 atoms into 8 pieces
        atoms = list(range(16))
        rng.shuffle(atoms)
        pieces = [0] * 8
        for i, a in enumerate(atoms):
            pieces[i % 8] |= 1 << a
        tr.factor_antichain(alg, alg.top, pieces, 2, 3)


def test_transfer_cut_and_choose():
    alg = FiniteBooleanAlgebra(GroundSet(4))
    big = GameInstance(game_family=G_POSET, start=alg.top, rounds=1, width=4,
                       cut_current=False, algebra=alg)
    small = GameInstance(game_family=G_POSET, start=alg.top, rounds=2,
                         width=2, cut_current=False, algebra=alg)

    res_small = solve(small)
    out_choose = tr.transfer_choose_small_to_big(res_small.strategy, small,
                                                 2, 2)
    assert verify_winning_strategy(out_choose.instance, out_choose.strategy,
                                   CHOOSE).verified
    assert_all_hold(out_choose)

    def atoms_move(inst_, state):
        return (1, 2, 4, 8)

    out_cut = tr.transfer_cut_big_to_small(
        FunctionStrategy(CUT, atoms_move, name="atoms"), big, 2, 2)
    certs = assert_all_hold(out_cut)
    t = play_out(out_cut.instance, out_cut.strategy,
                 greedy_picker_strategy(out_cut.instance))
    played = [m for role, m in t.moves if role == CUT]
    assert played[0] == tuple(sorted_masks([0b0011, 0b1100]))
    assert played[1] == tuple(sorted_masks([0b0101, 0b1010]))
    # block boundary: the recovered element is the picker's meet
    cert = out_cut.certify(t)
    assert cert.holds and cert.details["small_core"] == cert.details["big_core"]


def test_transfer_random_sigmas_certify():
    alg = FiniteBooleanAlgebra(GroundSet(4))
    big = GameInstance(game_family=G_POSET, start=alg.top, rounds=1, width=4,
                       cut_current=False, algebra=alg)
    small = GameInstance(game_family=G_POSET, start=alg.top, rounds=2,
                         width=2, cut_current=False, algebra=alg)
    for seed in range(4):
        out = tr.transfer_cut_big_to_small(
            seeded_table_strategy(big, CUT, seed), big, 2, 2)
        assert_all_hold(out)
        out2 = tr.transfer_choose_small_to_big(
            seeded_table_strategy(small, CHOOSE, seed), small, 2, 2)
        assert_all_hold(out2)


# ---------------------------------------------------------------------------
# Witness sequences
# ---------------------------------------------------------------------------

def test_witness_to_cut_ablation_sequence_wins():
    # without the maximality filter, the two bit-split families admit no
    # positive branch: every pick pair meets in at most one point
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    inst = GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=2,
                        width=6, maximal=False, cut_current=False,
                        ground=g, family=fam)
    seq = [(0b0011, 0b1100), (0b0101, 0b1010)]
    branch = find_branch(fam, g.full_mask, seq, analysis.PLAIN)
    out = tr.witness_to_cut_strategy(seq, inst)
    verified = verify_winning_strategy(inst, out.strategy, CUT).verified
    assert branch is None and verified
    assert_all_hold(out)
    # the same families in either order keep a branch when one is repeated
    rep = [(0b0011, 0b1100), (0b0011, 0b1100)]
    assert find_branch(fam, g.full_mask, rep, analysis.PLAIN) is not None
    out_rep = tr.witness_to_cut_strategy(rep, inst)
    assert not verify_winning_strategy(inst, out_rep.strategy, CUT).verified


def test_witness_with_branch_loses():
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    inst = GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=2,
                        width=6, maximal=True, cut_current=False,
                        ground=g, family=fam)
    seq = [(g.full_mask,), (g.full_mask,)]
    branch = find_branch(fam, g.full_mask, seq, analysis.PLAIN)
    assert branch == [g.full_mask, g.full_mask]
    out = tr.witness_to_cut_strategy(seq, inst)
    assert not verify_winning_strategy(inst, out.strategy, CUT).verified


def test_cut_strategy_to_witness_reads_its_budget_when_called(monkeypatch):
    g = GroundSet(4)
    inst = GameInstance(game_family=U, start=g.full_mask, rounds=2, width=2,
                        cut_current=False, ground=g,
                        family=MonotoneFamily.size_at_most(g, 1))
    monkeypatch.setattr(tr, "WITNESS_BUDGET", 1)
    with pytest.raises(CapacityError, match="witness") as err:
        tr.cut_strategy_to_witness(solve(inst).strategy, inst)
    assert err.value.stats == {"nodes": 2}


def test_cut_strategy_to_witness_round_trip():
    # solver strategies on small exact partition games, recast over the
    # powerset: every branch of the witness is a defeating pick line
    for m, n in ((4, 2), (5, 2), (3, 1)):
        inst = GameInstance(
            game_family=U, start=(1 << m) - 1, rounds=n, width=2,
            cut_current=False, ground=GroundSet(m),
            family=MonotoneFamily.size_at_most(GroundSet(m), 1))
        res = solve(inst)
        sigma = res.strategy if res.winner == CUT else None
        if sigma is None:
            continue
        seq = tr.cut_strategy_to_witness(sigma, inst)
        branch = find_branch(inst.family, inst.start, seq,
                             analysis.PLAIN)
        assert branch is None  # winning strategy <=> branchless sequence
    # and a losing cutter yields a sequence with a branch
    inst = GameInstance(
        game_family=U, start=(1 << 5) - 1, rounds=1, width=2,
        cut_current=False, ground=GroundSet(5),
        family=MonotoneFamily.size_at_most(GroundSet(5), 1))
    sigma = first_move_strategy(inst, CUT)
    seq = tr.cut_strategy_to_witness(sigma, inst)
    assert find_branch(inst.family, inst.start, seq,
                       analysis.PLAIN) is not None


def test_witness_branch_equivalence_exhaustive_small():
    # bidirectional: over all fixed sequences of two binary partitions of a
    # 4-point set, the referee's verdict on the sequence-playing cutter
    # matches branchlessness
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    inst = GameInstance(game_family=U, start=g.full_mask, rounds=2, width=2,
                        cut_current=False, ground=g, family=fam)
    from cutchoose.structures import enumerate_disjoint_partitions
    moves = enumerate_disjoint_partitions(g.full_mask, 2)
    for w0 in moves[:4]:
        for w1 in moves:
            seq = [w0, w1]
            out = tr.witness_to_cut_strategy(seq, inst)
            verified = verify_winning_strategy(inst, out.strategy,
                                               CUT).verified
            branch = find_branch(fam, g.full_mask, seq, analysis.PLAIN)
            assert verified == (branch is None), seq


# ---------------------------------------------------------------------------
# Banach-Mazur bridges
# ---------------------------------------------------------------------------

def test_witness_to_empty_maximal_walk():
    bm = bm_ideal(4, 2)
    fam = bm.family
    seqs = enumerate_i_partitions(fam, bm.start, None, True)
    out = tr.witness_to_empty_strategy([seqs[-1]], bm)
    certs = assert_all_hold(out)
    assert all(c.details["detach_stage"] is None for c in certs)
    # finite runs always end nonempty, matching the existence of a branch
    assert all(c.output_run.winner == NONEMPTY for c in certs)


def test_witness_to_empty_ablation_detaches():
    bm = bm_ideal(4, 2)
    out = tr.witness_to_empty_strategy([(0b0011,)], bm)
    certs = assert_all_hold(out)
    assert any(c.details["detach_stage"] is not None for c in certs)


def test_empty_to_cut_copy_strategy():
    bm = bm_ideal(4, 2)

    def copy_e(inst_, state):
        return state.core

    out = tr.empty_to_cut_strategy(
        FunctionStrategy(EMPTY, copy_e, name="copy"), bm)
    assert out.instance.variant == WEAK and out.instance.width is None
    assert_all_hold(out)
    # both sides of the bridge are false at finite scale
    assert not verify_winning_strategy(out.instance, out.strategy,
                                       CUT).verified
    assert solve(bm, want_strategy=False).winner == NONEMPTY


def test_empty_to_cut_trivial_one_round():
    g = GroundSet(3)
    bm1 = GameInstance(game_family=BM_IDEAL, start=g.full_mask, rounds=1,
                       width=None, ground=g,
                       family=MonotoneFamily.size_at_most(g, 0))

    def copy_e(inst_, state):
        return state.core

    out = tr.empty_to_cut_strategy(
        FunctionStrategy(EMPTY, copy_e, name="copy"), bm1)
    move = out.strategy.decide(out.instance, initial_state(out.instance),
                               stage_after(out.strategy, ()))
    assert move == (g.full_mask,)


def test_empty_to_cut_certificate_rejects_a_stale_cut():
    # A cutter that answers from the history before the latest pick replays
    # the previous round's partition; the certificate must catch it.
    g = GroundSet(4)
    bm = GameInstance(game_family=BM_IDEAL, start=g.full_mask, rounds=3,
                      width=None, ground=g,
                      family=Ideal.generated_by(g, [0b0010]))
    longer = tr.source_instance("empty_to_cut", bm)
    out = tr.empty_to_cut_strategy(seeded_table_strategy(longer, EMPTY, 4),
                                   bm)
    stale = Historied(
        CUT, lambda i, s, h: out.strategy.decide(
            i, s, stage_after(out.strategy, h[:-1])), name="stale")
    t = play_out(out.instance, stale, first_move_strategy(out.instance, CHOOSE))
    assert t.moves[2][1] == t.moves[0][1]
    cert = out.certify(t)
    assert not cert.holds and cert.details["cut_not_rebuilt"] == 1
    fresh = out.certify(play_out(out.instance, out.strategy,
                                 first_move_strategy(out.instance, CHOOSE)))
    assert fresh.holds and "cut_not_rebuilt" not in fresh.details


def test_nonempty_to_choose_transports_win():
    for m, rounds, bound in ((4, 2, 1), (5, 2, 1), (4, 3, 0)):
        bm = bm_ideal(m, rounds, bound)
        out = tr.nonempty_to_choose_strategy(copy_strategy(bm), bm, bm.start)
        assert verify_winning_strategy(out.instance, out.strategy,
                                       CHOOSE).verified, (m, rounds)
        assert_all_hold(out)


def test_choose_to_nonempty_greedy_provider():
    bm = bm_ideal(4, 2)

    def provider(x0):
        g_inst = GameInstance(game_family=G_IDEAL, start=x0, rounds=bm.rounds,
                              width=None, variant=WEAK, cut_current=False,
                              ground=bm.ground, family=bm.family)
        return greedy_picker_strategy(g_inst)

    out = tr.choose_to_nonempty_strategy(provider, bm)
    assert verify_winning_strategy(bm, out.strategy, NONEMPTY,
                                   node_budget=500_000).verified
    assert_all_hold(out)


def test_choose_to_nonempty_forced_single_piece():
    # one-round game: the survivor's first move keeps all positive subsets
    # inside the picker's response set
    g = GroundSet(3)
    bm1 = GameInstance(game_family=BM_IDEAL, start=g.full_mask, rounds=1,
                       width=None, ground=g,
                       family=MonotoneFamily.size_at_most(g, 1))

    def provider(x0):
        g_inst = GameInstance(game_family=G_IDEAL, start=x0, rounds=1,
                              width=None, variant=WEAK, cut_current=False,
                              ground=g, family=bm1.family)
        return greedy_picker_strategy(g_inst)

    out = tr.choose_to_nonempty_strategy(provider, bm1)
    st = initial_state(bm1)
    from cutchoose.engine import apply_move
    st1 = apply_move(bm1, st, g.full_mask)
    y = out.strategy.decide(bm1, st1, stage_after(
        out.strategy, ((EMPTY, g.full_mask),)))
    assert is_positive(bm1.family, y)


def test_choose_to_nonempty_sigma_search_failure_is_loud():
    # a picker that always answers with the whole set starves the response
    # set; the search must fail loudly, not play a move
    bm = bm_ideal(4, 2)

    def provider(x0):
        return FunctionStrategy(
            CHOOSE, lambda i, s: x0, name="constant-whole")

    out = tr.choose_to_nonempty_strategy(provider, bm)
    st = initial_state(bm)
    from cutchoose.engine import apply_move
    st1 = apply_move(bm, st, bm.start)
    with pytest.raises(SigmaSearchError):
        out.strategy.decide(bm, st1, stage_after(out.strategy,
                                                 ((EMPTY, bm.start),)))


def test_choose_to_nonempty_rejects_foreign_moves():
    bm = bm_ideal(4, 2)
    fam = bm.family

    def provider(x0):
        g_inst = GameInstance(game_family=G_IDEAL, start=x0, rounds=bm.rounds,
                              width=None, variant=WEAK, cut_current=False,
                              ground=bm.ground, family=bm.family)
        return greedy_picker_strategy(g_inst)

    out = tr.choose_to_nonempty_strategy(provider, bm)
    # compute the stage-one response set and pick a positive non-member
    responses = set()
    for w in enumerate_i_partitions(fam, bm.start, None, True):
        g_inst = GameInstance(game_family=G_IDEAL, start=bm.start,
                              rounds=bm.rounds, width=None, variant=WEAK,
                              cut_current=False, ground=bm.ground, family=fam)
        sigma = provider(bm.start)
        st = initial_state(g_inst)
        from cutchoose.engine import apply_move
        st = apply_move(g_inst, st, w, check=False)
        responses.add(sigma.decide(g_inst, st, ((CUT, w),)))
    foreign = next(s for s in sorted_masks(submasks(bm.start))
                   if s and is_positive(fam, s) and s not in responses)
    history = ((EMPTY, bm.start), (NONEMPTY, bm.start), (EMPTY, foreign))
    with pytest.raises(TransformSoundnessError):
        from cutchoose.engine import GameState
        out.strategy.decide(bm, GameState(1, NONEMPTY, foreign, None),
                            stage_after(out.strategy, history))


def test_transfer_choose_beta_three():
    alg = FiniteBooleanAlgebra(GroundSet(8))
    small = GameInstance(game_family=G_POSET, start=alg.top, rounds=3,
                         width=2, cut_current=False, algebra=alg)
    res = solve(small)
    assert res.winner == CHOOSE
    out = tr.transfer_choose_small_to_big(res.strategy, small, 2, 3)
    assert out.instance.width == 8 and out.instance.rounds == 1
    assert verify_winning_strategy(out.instance, out.strategy, CHOOSE,
                                   node_budget=1_000_000).verified


def test_disjointify_on_weak_variant_games():
    # the doubled game inherits the weak variant; early terminations leave
    # auxiliary prefixes that must still certify
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    g_inst = GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=2,
                          width=6, variant=WEAK, cut_current=False,
                          ground=g, family=fam)
    out = tr.disjointify_cut_strategy(first_move_strategy(g_inst, CUT), g_inst)
    assert out.instance.variant == WEAK and out.instance.rounds == 4
    assert_all_hold(out)
    u_inst = tr.source_instance("disjointify_choose", g_inst)
    out2 = tr.disjointify_choose_strategy(greedy_picker_strategy(u_inst),
                                          g_inst)
    assert_all_hold(out2)


def test_restrict_choose_cut_the_start_convention():
    def u(m, rounds):
        g = GroundSet(m)
        return GameInstance(game_family=U, start=g.full_mask, rounds=rounds,
                            width=2, cut_current=False, ground=g,
                            family=MonotoneFamily.size_at_most(g, 1))

    inner = u(5, 2)
    res = solve(inner)
    assert res.winner == CHOOSE
    outer = u(7, 2)
    out = tr.restrict_choose_strategy(res.strategy, inner, outer,
                                      (0, 2, 3, 5, 6))
    assert verify_winning_strategy(outer, out.strategy, CHOOSE).verified
    assert_all_hold(out)


def test_cut_strategy_to_witness_on_algebra_game():
    alg = FiniteBooleanAlgebra(GroundSet(3))
    inst = GameInstance(game_family=G_POSET, start=alg.top, rounds=2,
                        width=3, cut_current=False, algebra=alg)
    sigma = first_move_strategy(inst, CUT)
    seq = tr.cut_strategy_to_witness(sigma, inst)
    assert len(seq) == 2
    # the losing cutter's sequence has a branch; find it both ways
    from cutchoose import analysis
    branch = find_branch(alg, alg.top, seq, analysis.PLAIN)
    assert branch is not None
    out = tr.witness_to_cut_strategy(seq, inst)
    assert not verify_winning_strategy(inst, out.strategy, CUT).verified


def test_a_witness_asks_a_function_strategy_once_per_position():
    # first-move is positional, so each level asks it once per distinct
    # position; a stand-in that reads the history is asked once per pick
    # line, 43 times, for the same sequence
    inst = g_ideal(4, 3, width=None)
    first = first_move_strategy(inst, CUT)
    asked = []

    def fn(inst_, state):
        asked.append(state)
        return first.fn(inst_, state)

    seq = tr.cut_strategy_to_witness(FunctionStrategy(CUT, fn), inst)
    assert len(asked) == len(set(asked)) == 18
    historied, calls = _counting(first)
    assert tr.cut_strategy_to_witness(historied, inst) == seq
    assert len(calls) == 43


class Counted(Strategy):
    """``sigma`` (positional) behind a stage that counts the entries, which
    repeats at a position wherever two pick lines of one length reach it;
    ``asked`` lists the ``(position, stage)`` of every question."""

    def __init__(self, sigma):
        super().__init__(sigma.role, sigma.name)
        self.sigma, self.asked = sigma, []

    def start(self):
        return 0

    def step(self, stage, entry):
        return stage + 1

    def decide(self, inst, state, stage):
        self.asked.append((state, stage))
        return self.sigma.decide(inst, state, None)


def test_a_witness_asks_a_stateful_strategy_once_per_position_and_stage():
    # the pick lines that reach a position at one level share the stage, so
    # the stateful stand-in is asked as the positional strategy is
    inst = g_ideal(4, 3, width=None)
    first = first_move_strategy(inst, CUT)
    counted = Counted(first)
    seq = tr.cut_strategy_to_witness(counted, inst)
    assert seq == tr.cut_strategy_to_witness(first, inst)
    assert len(counted.asked) == len(set(counted.asked)) == 18


def test_a_witness_reads_a_transform_output():
    # a transform's stage is a node of its fold: one per history read
    inst = g_ideal(4, 2, width=2)
    out = tr.disjointify_cut_strategy(first_move_strategy(inst, CUT), inst)
    historied, calls = _counting(out.strategy)
    seq = tr.cut_strategy_to_witness(out.strategy, out.instance)
    assert seq == tr.cut_strategy_to_witness(historied, out.instance)
    assert len(seq) == out.instance.rounds and calls


# ---------------------------------------------------------------------------
# Auxiliary-run checkers
# ---------------------------------------------------------------------------

def test_aux_run_checkers_failure_branches():
    from cutchoose.engine import apply_move, legal_moves
    inst = u_instance(4, 2)
    cutter = first_move_strategy(inst, CUT)
    picker = first_move_strategy(inst, CHOOSE)
    start = initial_state(inst)
    first, second = legal_moves(inst, start)[:2]
    after_cut = apply_move(inst, start, first)
    pick, other = legal_moves(inst, after_cut)[:2]
    assert picker.decide(inst, after_cut, ((CUT, first),)) == pick

    def check(moves, sigma, role, details):
        return tr._Memos(inst, sigma, role).follows(moves, details)

    # a pick that is not one of the pending pieces is illegal
    details: dict = {}
    assert not check([(CUT, first), (CHOOSE, inst.start)], picker, CHOOSE,
                     details)
    assert "illegal_aux" in details and "aux_final_core" not in details
    # a pick sigma would not make is inconsistent
    details = {}
    assert not check([(CUT, first), (CHOOSE, other)], picker, CHOOSE,
                     details)
    assert details == {"inconsistent_aux": True}
    # the checker asks sigma for its own role's moves too
    details = {}
    assert not check([(CUT, second)], cutter, CUT, details)
    assert details == {"inconsistent_aux": True}
    # a consistent run records the final core
    details = {}
    assert check([(CUT, first), (CHOOSE, pick)], picker, CHOOSE, details)
    assert details == {"aux_final_core": format_mask(inst.start & pick)}
    # a one-piece cut does not force its pick: sigma is asked
    degenerate = [(CUT, (inst.start, 0)), (CHOOSE, inst.start)]
    refuses = FunctionStrategy(CHOOSE, lambda inst_, state: 0)
    details = {}
    assert not check(degenerate, refuses, CHOOSE, details)
    assert details == {"inconsistent_aux": True}


# ---------------------------------------------------------------------------
# The auxiliary runs' prefix fold
# ---------------------------------------------------------------------------

def _counting(sigma, calls=None):
    """``sigma`` and the list (``calls``, or a new one) of histories it is
    asked at."""
    calls = [] if calls is None else calls

    def fn(inst_, state, history):
        calls.append(history)
        return sigma.decide(inst_, state, stage_after(sigma, history))

    return Historied(sigma.role, fn, sigma.name), calls


def _prefixes(runs) -> set:
    return {tuple(run[:k]) for run in runs for k in range(len(run) + 1)}


def test_an_auxiliary_run_of_a_function_strategy_steps_no_stage():
    # first-move is positional: every run of the auxiliary game, in the
    # output's stages and in the certificates' replay, has stage None
    g_inst = g_ideal(4, 2, width=6)
    out = tr.disjointify_cut_strategy(first_move_strategy(g_inst, CUT),
                                      g_inst)
    memos = out._memos()
    runs = 0
    for t in enumerate_playouts(out.instance, out.strategy, CUT):
        aux = out.strategy.value(t.moves)[0]
        for run in (aux, memos.replay(aux.history, {})):
            while run is not None:
                assert run.sigma is not None and run.stage is None
                run, runs = run.before, runs + 1
    assert runs


def test_each_auxiliary_stage_of_nonempty_to_choose_is_computed_once():
    # The survivor is asked once at the opening and once per distinct pick
    # prefix short of the last round; the certificates' replay asks it once
    # per distinct auxiliary prefix ending in a survivor move, where a cold
    # replay of each certificate would ask once per survivor move (72).
    # Verification walks the same tree again and asks nothing new.
    bm = bm_ideal(4, 2)
    sigma, calls = _counting(copy_strategy(bm))
    out = tr.nonempty_to_choose_strategy(sigma, bm, bm.start)
    certs = assert_all_hold(out)
    picks = _prefixes([[m for r, m in c.output_run.moves if r == CHOOSE]
                       for c in certs])
    stages = sum(1 for p in picks if len(p) < bm.rounds)
    replays = sum(1 for p in _prefixes([c.aux_moves for c in certs])
                  if p and p[-1][0] == NONEMPTY)
    cold = sum(1 for c in certs for r, _ in c.aux_moves if r == NONEMPTY)
    assert (stages, replays, cold) == (5, 5, 72)
    assert len(calls) == stages + replays
    assert verify_winning_strategy(out.instance, out.strategy,
                                   CHOOSE).verified
    assert len(calls) == stages + replays
    calls.clear()
    for c in certs:
        out.certify(c.output_run)
    assert len(calls) == cold


def test_each_auxiliary_stage_of_disjointify_choose_is_computed_once():
    # The partition picker is asked once per distinct prefix of auxiliary
    # cuts, however many generalized cut prefixes feed it (a one-piece
    # disjointification or an empty remainder feeds nothing); the
    # certificates' replay asks it once per distinct auxiliary prefix ending
    # in a pick.
    g = GroundSet(5)
    g_inst = GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=2,
                          width=2, cut_current=False, ground=g,
                          family=Ideal.generated_by(g, [0b00011, 0b01100]))
    u_inst = tr.source_instance("disjointify_choose", g_inst)
    res = solve(u_inst)
    assert res.winner == CHOOSE
    sigma, calls = _counting(res.strategy)
    out = tr.disjointify_choose_strategy(sigma, g_inst)
    certs = assert_all_hold(out)
    cuts = _prefixes([[m for r, m in c.aux_moves if r == CUT]
                      for c in certs])
    stages = sum(1 for p in cuts if p)
    replays = sum(1 for p in _prefixes([c.aux_moves for c in certs])
                  if p and p[-1][0] == CHOOSE)
    assert len(calls) == stages + replays
    assert verify_winning_strategy(g_inst, out.strategy, CHOOSE).verified
    assert len(calls) == stages + replays


def _counted_sources():
    """Per transform: a builder of the output from a wrapper of its sources,
    and how often and at how many distinct histories the playouts ask them."""
    g5 = GroundSet(5)
    g_inst = GameInstance(game_family=G_IDEAL, start=g5.full_mask, rounds=2,
                          width=2, cut_current=False, ground=g5,
                          family=Ideal.generated_by(g5, [0b00011, 0b01100]))
    g4 = GroundSet(4)
    bm = GameInstance(game_family=BM_IDEAL, start=g4.full_mask, rounds=3,
                      width=None, ground=g4,
                      family=Ideal.generated_by(g4, [0b0010]))
    alg = FiniteBooleanAlgebra(g4)
    big = GameInstance(game_family=G_POSET, start=alg.top, rounds=1, width=4,
                       cut_current=False, algebra=alg)
    small = GameInstance(game_family=G_POSET, start=alg.top, rounds=2,
                         width=2, cut_current=False, algebra=alg)
    inner, outer = u_instance(4, 2), u_instance(6, 2)
    bm2 = bm_ideal(4, 2)
    return {
        "disjointify_cut": (
            lambda count: tr.disjointify_cut_strategy(
                count(first_move_strategy(g_inst, CUT)), g_inst), (3, 3)),
        "empty_to_cut": (
            lambda count: tr.empty_to_cut_strategy(
                count(seeded_table_strategy(
                    tr.source_instance("empty_to_cut", bm), EMPTY, 4)),
                bm), (7, 7)),
        "transfer_cut": (
            lambda count: tr.transfer_cut_big_to_small(
                count(first_move_strategy(big, CUT)), big, 2, 2), (1, 1)),
        "restrict_choose": (
            lambda count: tr.restrict_choose_strategy(
                count(seeded_table_strategy(inner, CHOOSE, 1)), inner, outer,
                (0, 2, 3, 5)), (16, 16)),
        "disjointify_choose": (
            lambda count: tr.disjointify_choose_strategy(
                count(solve(tr.source_instance(
                    "disjointify_choose", g_inst)).strategy), g_inst),
            (30, 30)),
        "transfer_choose": (
            lambda count: tr.transfer_choose_small_to_big(
                count(solve(small).strategy), small, 2, 2), (19, 19)),
        "choose_to_nonempty": (
            lambda count: tr.choose_to_nonempty_strategy(
                lambda x0: count(greedy_picker_strategy(tr.source_instance(
                    "choose_to_nonempty", bm2, x0))), bm2), (40, 40)),
    }


@pytest.mark.parametrize("name", sorted(_counted_sources()))
def test_each_stage_asks_the_source_once(name):
    # A block cutter asks its source once, when a block opens, never again
    # in decide.  A picker source answers through its reply fold, once per
    # history of its own game however many target histories lead there, so
    # the verification walk over the tree the playouts covered asks nothing
    # new.
    build, asked = _counted_sources()[name]
    calls: list = []
    out = build(lambda source: _counting(source, calls)[0])
    enumerate_playouts(out.instance, out.strategy, out.strategy.role)
    assert (len(calls), len(set(calls))) == asked
    verify_winning_strategy(out.instance, out.strategy, out.strategy.role)
    assert (len(calls), len(set(calls))) == asked


def test_a_deep_transcript_certifies_with_a_cold_memo():
    # 1,500 rounds, beyond the recursion limit: a fresh output folds the
    # whole transcript forward from its empty prefix
    bm = bm_ideal(4, 1500)
    out = tr.nonempty_to_choose_strategy(copy_strategy(bm), bm, bm.start)
    t = play_out(out.instance, first_move_strategy(out.instance, CUT),
                 out.strategy)
    assert len(t.moves) == 2 * bm.rounds
    fresh = tr.nonempty_to_choose_strategy(copy_strategy(bm), bm, bm.start)
    cert = fresh.certify(t)
    assert cert.holds and len(cert.aux_moves) == 2 * bm.rounds


def _fold_work(rounds) -> int:
    """The stage work of one playout of the 4-point nonempty_to_choose
    game: cProfile's counts of the stage steps (the transforms' ``step``
    functions) and of the trie lookups (``dict.get``)."""
    bm = bm_ideal(4, rounds)
    out = tr.nonempty_to_choose_strategy(copy_strategy(bm), bm, bm.start)
    profile = cProfile.Profile()
    profile.runcall(play_out, out.instance,
                    first_move_strategy(out.instance, CUT), out.strategy)
    return sum(calls for (path, _, name), (_, calls, *_)
               in pstats.Stats(profile).stats.items()
               if name == "<method 'get' of 'dict' objects>"
               or (name == "step" and path.endswith("transforms.py")))


def test_a_playout_steps_its_stages_in_linear_work():
    # each decision steps its stage once from the last, never from the
    # empty prefix: doubling the rounds about doubles the steps and lookups
    # (a lookup from the root per decision quadruples them)
    work = [_fold_work(rounds) for rounds in (750, 1500, 3000)]
    assert all(longer <= 2.2 * shorter
               for shorter, longer in zip(work, work[1:])), work


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _deep_output(name, rounds):
    """A fresh output of ``name`` on a game of ``rounds`` rounds, and the
    (cutter, picker) pair that plays it against a fixed opponent."""
    if name == "nonempty_to_choose":
        bm = bm_ideal(4, rounds)
        out = tr.nonempty_to_choose_strategy(copy_strategy(bm), bm, bm.start)
        return out, (first_move_strategy(out.instance, CUT), out.strategy)
    g_inst = g_ideal(4, rounds, width=None)
    whole = FunctionStrategy(CUT, lambda i, s: (g_inst.start,), "whole")
    out = tr.disjointify_cut_strategy(whole, g_inst)
    return out, (out.strategy, greedy_picker_strategy(out.instance))


@pytest.mark.parametrize("name, short", [("nonempty_to_choose", 750),
                                         ("disjointify_cut", 250)])
def test_a_deep_game_plays_and_certifies_in_linear_memory(name, short):
    # A run shares its prefix with the run it extends, and a block cutter's
    # stage its finished blocks with the stage it extends, so the stage
    # fold that play_out drives and a cold certificate's replay hold
    # O(depth): twice the rounds at most about doubles the traced peak (a
    # history copied into every run would make it about four times)
    peaks = []
    for rounds in (short, 2 * short):
        out, sides = _deep_output(name, rounds)
        played = _traced_peak(lambda: play_out(out.instance, *sides))
        t = play_out(out.instance, *sides)
        fresh, _ = _deep_output(name, rounds)
        peaks.append((played, _traced_peak(lambda: fresh.certify(t))))
    (play_short, cert_short), (play_long, cert_long) = peaks
    assert play_long <= 2.5 * play_short, peaks
    assert cert_long <= 2.5 * cert_short, peaks


def test_a_stage_that_raises_caches_nothing():
    # a partition picker answering with the whole set picks no piece of the
    # disjointification: the same decision raises again, while the reply
    # fold keeps the picker's answer and asks it once
    g_inst = g_ideal(4, 2, width=6)
    whole, calls = _counting(
        FunctionStrategy(CHOOSE, lambda i, s: s.core, name="whole"))
    out = tr.disjointify_choose_strategy(whole, g_inst)
    start = initial_state(g_inst)
    w = next(w for w in legal_moves(g_inst, start)
             if len(tr._disjointify_move(g_inst, w)[2]) >= 2)
    after_cut = apply_move(g_inst, start, w)
    for _ in range(2):
        with pytest.raises(TransformSoundnessError):
            out.strategy.decide(g_inst, after_cut,
                                stage_after(out.strategy, ((CUT, w),)))
        assert len(calls) == 1


def test_a_failing_replay_step_caches_nothing():
    # Under one memo, as in certify_playouts, runs that share a prefix
    # where the picker disagrees, or an illegal pick, each fail there with
    # the entry a cold replay gives, before and after a run that holds
    inst = u_instance(4, 2)
    picker = first_move_strategy(inst, CHOOSE)
    start = initial_state(inst)
    first = legal_moves(inst, start)[0]
    after_cut = apply_move(inst, start, first)
    pick, other = legal_moves(inst, after_cut)[:2]
    cuts = legal_moves(inst, apply_move(inst, after_cut, other))[:2]
    runs = [[(CUT, first), (CHOOSE, other), (CUT, cuts[0])],
            [(CUT, first), (CHOOSE, other), (CUT, cuts[1])],
            [(CUT, first), (CHOOSE, inst.start), (CUT, cuts[0])],
            [(CUT, first), (CHOOSE, inst.start)],
            [(CUT, first), (CHOOSE, pick)]]
    memos = tr._Memos(inst, picker, CHOOSE)
    seen = []
    for run in runs * 2:
        shared, cold = {}, {}
        holds = memos.follows(run, shared)
        assert holds == tr._Memos(inst, picker, CHOOSE).follows(run, cold)
        assert shared == cold
        seen.append(sorted(shared))
    assert seen[:5] == seen[5:] == [["inconsistent_aux"]] * 2 + \
        [["illegal_aux"]] * 2 + [["aux_final_core"]]


def test_restrict_choose_certificates_are_pinned():
    inner, outer = u_instance(4, 2), u_instance(6, 2)
    out = tr.restrict_choose_strategy(seeded_table_strategy(inner, CHOOSE, 1),
                                      inner, outer, (0, 2, 3, 5))
    certs = assert_all_hold(out)
    doc = [serialize.certificate_to_jsonable(c, out.aux_instance)
           for c in certs]
    assert len(certs) == 155
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()
                          ).hexdigest() == (
        "ed9962596f9ba75e353f9ce0b185febe2a233803639c868a573ba4cc63305b88")


# Each transform's kind and the one relation its certificates check.
RELATIONS = {
    "digit_split": "final core has at most one point",
    "fixed_point": "every pick contains the fixed point",
    "restrict_choose": "outer core pulls back to the inner core",
    "disjointify_cut": "final partition core inside the auxiliary picks",
    "disjointify_choose":
        "generalized core contains the trimmed auxiliary picks",
    "transfer_cut_big_to_small":
        "narrow and auxiliary cores agree at block boundaries",
    "transfer_choose_small_to_big":
        "wide core equals narrow core at block boundaries",
    "witness_to_cut": "moves follow the sequence",
    "witness_to_empty": "final core inside the realized walk",
    "empty_to_cut": "picks are the emptier's moves; extension picks lose",
    "nonempty_to_choose":
        "generalized core contains the trimmed auxiliary sets",
    "choose_to_nonempty": "opposing moves are exactly the picker's responses",
}


def _copy_emptier():
    return FunctionStrategy(EMPTY, lambda i, s: s.core, name="copy")


def _each_transform_and_its_source():
    """One output of each transform, with the strategy it transports
    (``None`` for the five transforms that have none).  Every transport
    replays an auxiliary move in some certificate; at width 2 the greedy
    partition picker's ``disjointify_choose`` has one playout and none."""
    g_inst = g_ideal(4, 1, width=4)
    bm = bm_ideal(4, 2)
    alg = FiniteBooleanAlgebra(GroundSet(4))
    big = GameInstance(game_family=G_POSET, start=alg.top, rounds=1, width=4,
                       cut_current=False, algebra=alg)
    small = GameInstance(game_family=G_POSET, start=alg.top, rounds=2,
                         width=2, cut_current=False, algebra=alg)
    inner, outer = u_instance(3, 1), u_instance(4, 1)
    witness = GameInstance(game_family=U, start=0b1111, rounds=2, width=2,
                           cut_current=False, ground=GroundSet(4),
                           family=bm.family)
    sources = {
        "restrict_choose": first_move_strategy(inner, CHOOSE),
        "disjointify_cut": first_move_strategy(g_inst, CUT),
        "disjointify_choose": greedy_picker_strategy(
            tr.source_instance("disjointify_choose", g_inst)),
        "transfer_cut_big_to_small": first_move_strategy(big, CUT),
        "transfer_choose_small_to_big": first_move_strategy(small, CHOOSE),
        "empty_to_cut": _copy_emptier(),
        "nonempty_to_choose": copy_strategy(bm),
    }
    outputs = [
        tr.digit_split_cut_strategy(4, 2, 2),
        tr.fixed_point_choose(u_instance(4, 2), 1),
        tr.restrict_choose_strategy(sources["restrict_choose"], inner, outer,
                                    (0, 1, 3)),
        tr.disjointify_cut_strategy(sources["disjointify_cut"], g_inst),
        tr.disjointify_choose_strategy(sources["disjointify_choose"], g_inst),
        tr.transfer_cut_big_to_small(sources["transfer_cut_big_to_small"],
                                     big, 2, 2),
        tr.transfer_choose_small_to_big(
            sources["transfer_choose_small_to_big"], small, 2, 2),
        tr.witness_to_cut_strategy([(0b0011, 0b1100), (0b0101, 0b1010)],
                                   witness),
        tr.witness_to_empty_strategy([(0b0011,)], bm),
        tr.empty_to_cut_strategy(sources["empty_to_cut"], bm),
        tr.nonempty_to_choose_strategy(sources["nonempty_to_choose"], bm,
                                       bm.start),
        tr.choose_to_nonempty_strategy(lambda x0: greedy_picker_strategy(
            tr.source_instance("choose_to_nonempty", bm, x0)), bm),
    ]
    return [(out, sources.get(out.kind)) for out in outputs]


def _one_output_of_each_transform():
    return [out for out, _ in _each_transform_and_its_source()]


# The role each transport's source plays in its auxiliary game: the output
# strategy's side there.
SOURCE_ROLES = {
    "restrict_choose": CHOOSE,
    "disjointify_cut": CUT,
    "disjointify_choose": CHOOSE,
    "transfer_cut_big_to_small": CUT,
    "transfer_choose_small_to_big": CHOOSE,
    "empty_to_cut": EMPTY,
    "nonempty_to_choose": NONEMPTY,
}


def test_each_output_declares_the_source_its_certificates_replay():
    seen = set()
    for out, sigma in _each_transform_and_its_source():
        seen.add(out.kind)
        assert out.source is sigma, out.kind
        if sigma is None:
            assert out.aux_instance is None, out.kind
            continue
        assert out._memos().role == SOURCE_ROLES[out.kind] == sigma.role
    assert seen == set(RELATIONS)


def test_a_certificate_replays_the_declared_auxiliary_game():
    # With the declared game's lowest start point dropped, a certificate's
    # first auxiliary move leaves the start and is illegal there.
    outs = [out for out, sigma in _each_transform_and_its_source()
            if sigma is not None]
    for out in outs:
        cert = next(c for c in tr.certify_playouts(out) if c.aux_moves)
        assert cert.holds and "illegal_aux" not in cert.details, out.kind
        aux = out.aux_instance
        shrunk = replace(out, aux_instance=replace(
            aux, start=aux.start & (aux.start - 1))).certify(cert.output_run)
        assert not shrunk.holds and "illegal_aux" in shrunk.details, out.kind
    assert {out.kind for out in outs} == set(SOURCE_ROLES)


def test_every_certificate_carries_its_transforms_kind_and_relation():
    seen = set()
    for out in _one_output_of_each_transform():
        certs = tr.certify_playouts(out)
        assert certs, out.kind
        assert {(c.kind, c.relation) for c in certs} == {
            (out.kind, RELATIONS[out.kind])}
        seen.add(out.kind)
    assert seen == set(RELATIONS)


def test_the_call_memo_changes_no_certificate():
    # certify_playouts replays each auxiliary prefix once for the call, a
    # direct certify from move 0: the two give the same certificates
    for out in _one_output_of_each_transform():
        runs = enumerate_playouts(out.instance, out.strategy,
                                  out.strategy.role)
        cold = [out.certify(t) for t in runs]
        shared = tr.certify_playouts(out)
        assert [serialize.certificate_to_jsonable(c, out.aux_instance)
                for c in shared] == [
            serialize.certificate_to_jsonable(c, out.aux_instance)
            for c in cold], out.kind


def test_a_foreign_opposing_move_fails_under_the_one_relation():
    # an opening set no picker answered: the survivor's fold refuses the
    # next opposing move, and the certificate reads the transform's relation
    bm = bm_ideal(4, 2)
    out = tr.choose_to_nonempty_strategy(lambda x0: greedy_picker_strategy(
        tr.source_instance("choose_to_nonempty", bm, x0)), bm)
    t = play_out(bm, _copy_emptier(), out.strategy)
    foreign = Run.start(bm)
    for i, (_, move) in enumerate(t.moves):
        foreign = foreign.then(0b0001 if i == 2 else move)
    cert = out.certify(Transcript(foreign, t.winner, t.reason))
    assert (cert.kind, cert.relation, cert.holds, cert.aux_moves) == (
        "choose_to_nonempty", RELATIONS["choose_to_nonempty"], False, [])
    assert "is not a picker response" in cert.details["error"]
