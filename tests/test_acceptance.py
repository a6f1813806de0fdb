"""Acceptance criteria, one test per criterion, a pass line printed by each.

Quantitative anchors are the closed-form counting laws; everything else is
property-based on the seeded corpus.  Tolerances are exact (game winners and
certificates are discrete); time limits are asserted where stated.
"""

import random
import time
from dataclasses import replace

import pytest

from cutchoose import analysis as an, transforms as tr
from cutchoose.engine import (BM_IDEAL, CHOOSE, CUT, EMPTY, EXACT, G_IDEAL,
                              G_POSET, NONEMPTY, U, WEAK, FunctionStrategy,
                              GameInstance, copy_strategy,
                              first_move_strategy, greedy_picker_strategy,
                              verify_winning_strategy)
from cutchoose.errors import ValidationError
from cutchoose.serialize import (audit_report_to_jsonable, dumps,
                                 serialize_strategy)
from cutchoose.solver import refute, reference_winner, solve
from cutchoose.structures import (FiniteBooleanAlgebra, GroundSet,
                                  MonotoneFamily, is_positive, submasks)

CORPUS_SEED = 2024
_corpus_cache = {}


def corpus():
    if "c" not in _corpus_cache:
        _corpus_cache["c"] = an.generate_corpus(CORPUS_SEED, per_family=25)
    return _corpus_cache["c"]


def u_instance(m, rounds, width=2, variant=EXACT, bound=1):
    g = GroundSet(m)
    return GameInstance(game_family=U, start=g.full_mask, rounds=rounds,
                        width=width, variant=variant, ground=g,
                        family=MonotoneFamily.size_at_most(g, bound))


def report(name, detail=""):
    print(f"PASS {name}" + (f" -- {detail}" if detail else ""))


# ---------------------------------------------------------------------------

def test_criterion_01_binary_threshold_law():
    t0 = time.time()
    for n in range(1, 5):
        for m in range(2, 21):
            winner = solve(u_instance(m, n), want_strategy=False).winner
            expected = CUT if m <= 2 ** n else CHOOSE
            assert winner == expected, (m, n, winner)
    elapsed = time.time() - t0
    assert elapsed < 60
    report("criterion 1: binary threshold law (cutter wins iff m <= 2**n, "
           "n in 1..4, m in 2..20)", f"{elapsed:.1f}s")


def test_criterion_02_width_three_threshold_law():
    t0 = time.time()
    for n in (1, 2):
        for m in range(2, 13):
            winner = solve(u_instance(m, n, width=3),
                           want_strategy=False).winner
            expected = CUT if m <= 3 ** n else CHOOSE
            assert winner == expected, (m, n, winner)
    elapsed = time.time() - t0
    assert elapsed < 60
    report("criterion 2: width-3 threshold law (cutter wins iff m <= 3**n)",
           f"{elapsed:.1f}s")


def test_criterion_03_weak_thresholds_match_oracle():
    t0 = time.time()
    scan = an.threshold_scan(2, [1, 2, 3], range(2, 13), WEAK)
    table = [(r.rounds, r.minimal_choose_win) for r in scan]
    # frozen oracle values, recomputed here by raw unmemoized minimax
    oracle_table = []
    for n in (1, 2, 3):
        minimal = None
        for m in range(2, 13):
            if reference_winner(u_instance(m, n, variant=WEAK)) == CHOOSE:
                minimal = m
                break
        oracle_table.append((n, minimal))
    assert table == oracle_table == [(1, 3), (2, 5), (3, 9)]
    mins = [x for _, x in table]
    assert mins == sorted(mins)  # monotone in the round count
    report("criterion 3: weak-variant thresholds match the naive oracle "
           "and are monotone", f"{time.time() - t0:.1f}s, table {table}")


def test_criterion_04_determinacy_and_extraction():
    t0 = time.time()
    items = corpus()[:100]
    for item in items:
        inst = item.instance
        result = solve(inst)
        assert result.winner in (CUT, CHOOSE, EMPTY, NONEMPTY)
        assert verify_winning_strategy(inst, result.strategy,
                                       result.winner).verified, item.instance_id
        loser = inst.opponent(result.winner)
        assert not refute(inst, loser).has_winning_strategy, item.instance_id
    elapsed = time.time() - t0
    assert elapsed < 600
    report("criterion 4: determinacy + extraction + refutation on 100 "
           "corpus instances", f"{elapsed:.1f}s")


def test_criterion_05_degeneracy_laws_and_audit():
    t0 = time.time()
    per_family = {}
    disagreements = 0
    for item in corpus():
        inst = item.instance
        winner = solve(inst, want_strategy=False).winner
        fam = inst.game_family
        per_family[fam] = per_family.get(fam, 0) + 1
        if fam in (G_IDEAL, G_POSET):
            assert winner == CHOOSE, item.instance_id
        if fam in (BM_IDEAL, "BM_poset"):
            assert winner == NONEMPTY, item.instance_id
        rep = an.equivalence_audit(inst)
        disagreements += len(rep.disagreements)
        assert not rep.disagreements, (item.instance_id, rep.disagreements)
    assert all(per_family[f] >= 25 for f in per_family) and len(per_family) == 5
    elapsed = time.time() - t0
    assert elapsed < 600
    report("criterion 5: degeneracy laws + zero audit disagreements over "
           f"{len(corpus())} instances", f"{elapsed:.1f}s")


def _small_g_ideal_instances(max_ground, max_rounds, limit):
    out = []
    for item in corpus():
        inst = item.instance
        if inst.game_family != G_IDEAL or inst.cut_current:
            continue
        if inst.ground.size > max_ground or inst.rounds > max_rounds:
            continue
        if inst.variant != EXACT:
            continue
        out.append(inst)
        if len(out) >= limit:
            break
    return out


def test_criterion_06_simulation_soundness_and_win_transport():
    t0 = time.time()
    playouts = 0
    transports = 0

    def all_hold(out, budget=400_000):
        nonlocal playouts
        certs = tr.certify_playouts(out, node_budget=budget)
        assert certs and all(c.holds for c in certs), out.kind
        playouts += len(certs)
        return certs

    # Disjointification, both directions, on corpus generalized-cut games.
    g_instances = _small_g_ideal_instances(5, 2, 6)
    assert g_instances
    for g_inst in g_instances:
        all_hold(tr.disjointify_cut_strategy(
            first_move_strategy(g_inst, CUT), g_inst))
        u_inst = tr.source_instance("disjointify_choose", g_inst)
        res = solve(u_inst)
        if res.winner == CHOOSE:
            out = tr.disjointify_choose_strategy(res.strategy, g_inst)
            all_hold(out)
            assert verify_winning_strategy(g_inst, out.strategy,
                                           CHOOSE).verified
            transports += 1
        else:
            sigma = greedy_picker_strategy(u_inst)
            all_hold(tr.disjointify_choose_strategy(sigma, g_inst))
    # A guaranteed picker-transport case for the doubled partition game.
    g_win = GameInstance(game_family=G_IDEAL, start=(1 << 5) - 1, rounds=1,
                         width=2, cut_current=False, ground=GroundSet(5),
                         family=MonotoneFamily.size_at_most(GroundSet(5), 1))
    res = solve(tr.source_instance("disjointify_choose", g_win))
    assert res.winner == CHOOSE
    out = tr.disjointify_choose_strategy(res.strategy, g_win)
    all_hold(out)
    assert verify_winning_strategy(g_win, out.strategy, CHOOSE).verified
    transports += 1

    # Width transfer on algebras: picker direction always transports.
    for atoms in (3, 4):
        alg = FiniteBooleanAlgebra(GroundSet(atoms))
        small = GameInstance(game_family=G_POSET, start=alg.top, rounds=2,
                             width=2, cut_current=False, algebra=alg)
        res = solve(small)
        assert res.winner == CHOOSE
        out = tr.transfer_choose_small_to_big(res.strategy, small, 2, 2)
        all_hold(out)
        assert verify_winning_strategy(out.instance, out.strategy,
                                       CHOOSE).verified
        transports += 1
        big = GameInstance(game_family=G_POSET, start=alg.top, rounds=1,
                           width=4, cut_current=False, algebra=alg)
        all_hold(tr.transfer_cut_big_to_small(
            first_move_strategy(big, CUT), big, 2, 2))

    # Banach-Mazur bridges: survivor/picker directions transport both ways.
    bm_items = [item.instance for item in corpus()
                if item.instance.game_family == BM_IDEAL
                and item.instance.ground.size <= 4
                and item.instance.rounds <= 2][:4]
    assert bm_items
    for bm in bm_items:
        out = tr.nonempty_to_choose_strategy(copy_strategy(bm), bm, bm.start)
        all_hold(out)
        assert verify_winning_strategy(out.instance, out.strategy,
                                       CHOOSE).verified
        transports += 1

        def provider(x0, bm=bm):
            g_inst = GameInstance(game_family=G_IDEAL, start=x0,
                                  rounds=bm.rounds, width=None, variant=WEAK,
                                  cut_current=False, ground=bm.ground,
                                  family=bm.family)
            return greedy_picker_strategy(g_inst)

        out2 = tr.choose_to_nonempty_strategy(provider, bm)
        all_hold(out2)
        assert verify_winning_strategy(bm, out2.strategy, NONEMPTY,
                                       node_budget=500_000).verified
        transports += 1

        def copy_e(inst_, state):
            return state.core

        all_hold(tr.empty_to_cut_strategy(
            FunctionStrategy(EMPTY, copy_e, name="copy"), bm))
        from cutchoose.structures import enumerate_i_partitions
        seqs = enumerate_i_partitions(bm.family, bm.start, None, True)
        if bm.rounds >= 2:
            all_hold(tr.witness_to_empty_strategy(
                [seqs[-1]] * (bm.rounds - 1), bm))
    elapsed = time.time() - t0
    assert elapsed < 600
    report("criterion 6: simulation soundness (100% of playout certificates) "
           "and win transport",
           f"{playouts} playouts, {transports} transports, {elapsed:.1f}s")


def test_criterion_07_factorization_identities():
    t0 = time.time()
    rng = random.Random(1234)
    checked = 0
    while checked < 100:
        atoms = rng.randint(4, 16)
        alg = FiniteBooleanAlgebra(GroundSet(atoms))
        beta = rng.randint(1, 3)
        piece_count = rng.randint(2, min(2 ** beta, atoms))
        order = list(range(atoms))
        rng.shuffle(order)
        pieces = [0] * piece_count
        for i, a in enumerate(order):
            pieces[i % piece_count] |= 1 << a
        # identities are verified inside the constructor; reaching here is
        # the assertion
        tr.factor_antichain(alg, alg.top, pieces, 2, beta)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    report("criterion 7: factorization identities on 100 random partitions "
           "(up to 16 atoms, beta <= 3)", f"{elapsed:.1f}s")


def test_criterion_08_maximality_ablation():
    t0 = time.time()
    eligible = 0
    for item in corpus():
        inst = item.instance
        if inst.game_family != G_IDEAL:
            continue
        ablated = replace(inst, maximal=False, cut_current=False,
                          variant=EXACT, rounds=max(2, inst.rounds))
        try:
            rep = an.maximality_ablation(ablated)
        except ValidationError:
            continue  # no disjoint positive pair: ineligible
        eligible += 1
        assert rep.cutter_verified, item.instance_id
        assert rep.restored_winner == CHOOSE, item.instance_id
    assert eligible >= 5
    report("criterion 8: maximality ablation (cutter verified without the "
           "filter, picker wins with it)",
           f"{eligible} eligible instances, {time.time() - t0:.1f}s")


def test_criterion_09_convention_invariance():
    t0 = time.time()
    checked = 0
    for item in corpus():
        inst = item.instance
        if inst.game_family not in (U, G_IDEAL, G_POSET):
            continue
        flipped = replace(inst, cut_current=not inst.cut_current)
        assert solve(inst, want_strategy=False).winner == \
            solve(flipped, want_strategy=False).winner, item.instance_id
        checked += 1
    assert checked >= 75
    report("criterion 9: identical winners under both partition conventions",
           f"{checked} instances, {time.time() - t0:.1f}s")


def test_criterion_10_monotone_transfer():
    t0 = time.time()
    cases = []
    for m, n, bound in ((3, 1, 1), (4, 1, 1), (5, 2, 1), (6, 2, 1),
                        (3, 2, 0), (4, 2, 0), (3, 1, 0), (5, 1, 1),
                        (6, 1, 1), (7, 2, 1)):
        inner = u_instance(m, n, bound=bound)
        result = solve(inner)
        if result.winner != CHOOSE:
            continue
        for extra in (1, 2):
            cases.append((inner, result.strategy, m + extra))
    assert len(cases) >= 20
    verified = 0
    rng = random.Random(5)
    for inner, sigma, m_out in cases[:22]:
        outer = u_instance(m_out, inner.rounds,
                           bound=inner.family.bound)
        points = list(range(m_out))
        rng.shuffle(points)
        emb = tuple(sorted(points[:inner.ground.size])) if verified % 2 \
            else tuple(range(inner.ground.size))
        out = tr.restrict_choose_strategy(sigma, inner, outer, emb)
        assert verify_winning_strategy(outer, out.strategy,
                                       CHOOSE).verified, (m_out, emb)
        verified += 1
    assert verified >= 20
    report("criterion 10: transplanted picker strategies verify on larger "
           f"grounds", f"{verified} embeddings, {time.time() - t0:.1f}s")


def test_criterion_11_reproducibility():
    t0 = time.time()
    inst = u_instance(5, 2)
    first = serialize_strategy(inst, solve(inst).strategy)
    second = serialize_strategy(inst, solve(inst).strategy)
    assert first == second

    small = an.generate_corpus(77, per_family=3)

    def audit_all(jobs):
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(
                lambda it: audit_report_to_jsonable(
                    an.equivalence_audit(it.instance)), small))
        return dumps(reports)

    assert audit_all(1) == audit_all(3)
    report("criterion 11: byte-identical solver and audit outputs across "
           "runs and worker counts", f"{time.time() - t0:.1f}s")
