import pytest

from cutchoose import analysis as an
from cutchoose.engine import (BM_IDEAL, CHOOSE, CUT, EXACT, G_IDEAL, U, WEAK,
                              GameInstance)
from cutchoose.errors import CapacityError, ValidationError
from cutchoose.serialize import (audit_report_text, audit_report_to_jsonable,
                                 instance_to_jsonable)
from cutchoose.solver import solve
from cutchoose.structures import (FiniteBooleanAlgebra, FinitePoset,
                                  GroundSet, Ideal, MonotoneFamily)


def test_check_distributivity_holds_on_algebras():
    # fix an atom below X: every finite algebra is distributive
    for atoms in (2, 3, 4):
        alg = FiniteBooleanAlgebra(GroundSet(atoms))
        for n in (1, 2):
            assert an.check_distributivity(alg, alg.top, n, 2).holds


def test_check_distributivity_reads_its_budget_when_called(monkeypatch):
    # 3 atoms, width 2: 4 moves, 3 of them counted, and 16 sequences
    alg = FiniteBooleanAlgebra(GroundSet(3))
    monkeypatch.setattr(an, "SEQUENCE_BUDGET", 5)
    with pytest.raises(CapacityError, match="sequence search") as err:
        an.check_distributivity(alg, alg.top, 2, 2)
    assert err.value.stats == {"sequences_checked": 6}


def test_single_sequence_trivial_branch():
    g = GroundSet(3)
    fam = MonotoneFamily.size_at_most(g, 1)
    assert an.find_branch(fam, g.full_mask, [(g.full_mask,)],
                          an.PLAIN) == [g.full_mask]


def test_ablation_distributivity_failure_certificate():
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    res = an.check_distributivity(fam, g.full_mask, 2, 2, an.IDEAL_WEAK,
                                  maximal=False)
    assert not res.holds
    assert an.find_branch(fam, g.full_mask, res.failing_sequence,
                          an.IDEAL_WEAK) is None


# (holds, failing_sequence, sequences_checked) at two rounds: maximal moves
# at unbounded width, then non-maximal ones at width 2
DISTRIBUTIVITY_PINS = {
    "family": {an.PLAIN: [(True, None, 36), (False, [(3,), (5,)], 18)],
               an.UNIFORM: [(True, None, 36), (True, None, 1444)],
               an.IDEAL_WEAK: [(True, None, 36), (False, [(3,), (12,)], 38)]},
    "algebra": {an.PLAIN: [(True, None, 25), (False, [(1,), (2,)], 10)],
                an.UNIFORM: [(True, None, 25), (True, None, 169)],
                an.IDEAL_WEAK: [(True, None, 25), (False, [(1,), (2,)], 10)]},
    "poset": {an.PLAIN: [(True, None, 9), (False, [(0,), (1,)], 4)],
              an.UNIFORM: [(True, None, 9), (True, None, 81)],
              an.IDEAL_WEAK: [(True, None, 9), (False, [(0,), (1,)], 4)]},
}


@pytest.mark.parametrize("kind", sorted(DISTRIBUTIVITY_PINS))
def test_check_distributivity_pinned(kind):
    g = GroundSet(4)
    structure, x = {
        "family": (MonotoneFamily.size_at_most(g, 1), g.full_mask),
        "algebra": (FiniteBooleanAlgebra(GroundSet(3)), 0b111),
        "poset": (FinitePoset.from_subsets(
            [0b001, 0b010, 0b100, 0b011, 0b111], 4), 4),
    }[kind]
    for variant, pins in DISTRIBUTIVITY_PINS[kind].items():
        got = [an.check_distributivity(structure, x, 2, width, variant,
                                       maximal)
               for width, maximal in ((None, True), (2, False))]
        assert [(r.holds, r.failing_sequence, r.sequences_checked)
                for r in got] == pins, variant


def test_every_finite_poset_is_distributive():
    p = FinitePoset.from_subsets([0b001, 0b010, 0b011, 0b101, 0b111], 4)
    assert an.check_distributivity(p, 4, 2, 2).holds
    assert an.check_distributivity(p, 4, 2, None, an.UNIFORM).holds


def test_precipitous_analog_examples():
    g3 = GroundSet(3)
    trivial = Ideal.explicit(g3, [0])
    assert an.precipitous_analog(trivial, 2)
    for n in (1, 2, 3):
        assert an.precipitous_analog(Ideal.generated_by(g3, [0b100]), n)
    # consistency with the solver's descent-game verdict is an audit row


def test_threshold_scan_tables():
    rows = an.threshold_scan(2, [1, 2, 3], range(2, 13))
    assert [(r.rounds, r.minimal_choose_win) for r in rows] == \
        [(1, 3), (2, 5), (3, 9)]
    rows3 = an.threshold_scan(3, [1, 2], range(2, 13))
    assert [(r.rounds, r.minimal_choose_win) for r in rows3] == \
        [(1, 4), (2, 10)]


def test_threshold_scan_weak_matches_exact_finitely():
    # no finite counterpart of the prefix/full separation: same minimal wins
    exact = an.threshold_scan(2, [1, 2, 3], range(2, 13), EXACT)
    weak = an.threshold_scan(2, [1, 2, 3], range(2, 13), WEAK)
    assert [(r.rounds, r.minimal_choose_win) for r in exact] == \
        [(r.rounds, r.minimal_choose_win) for r in weak]


def test_audit_zero_disagreements_and_row_shapes():
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    inst = GameInstance(game_family=U, start=g.full_mask, rounds=2, width=2,
                        ground=g, family=fam)
    report = an.equivalence_audit(inst)
    assert not report.disagreements
    ids = {r.row_id for r in report.rows}
    assert {"cutter_threshold_exact", "cutter_threshold_weak",
            "ideal_distributivity_weak", "bm_empty_vs_cutter",
            "bm_nonempty_vs_picker", "weak_compactness_row"} <= ids
    # the inapplicable rows are reported, not dropped
    na = [r for r in report.rows if not r.applicable]
    assert na and all(r.agree is None for r in na)


def test_audit_quotient_row_for_ideals():
    g = GroundSet(4)
    ideal = Ideal.generated_by(g, [0b1000])
    inst = GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=2,
                        width=2, cut_current=False, ground=g, family=ideal)
    report = an.equivalence_audit(inst)
    assert not report.disagreements
    rows = {r.row_id: r for r in report.rows}
    assert rows["quotient_same_game"].agree is True
    assert rows["precipitous_analog"].agree is True


def test_audit_poset_rows():
    alg = FiniteBooleanAlgebra(GroundSet(3))
    inst = GameInstance(game_family="G_poset", start=alg.top, rounds=2,
                        width=2, cut_current=False, algebra=alg)
    report = an.equivalence_audit(inst)
    assert not report.disagreements
    ids = {r.row_id for r in report.rows}
    assert {"poset_distributivity", "poset_uniform_distributivity",
            "bm_empty_vs_cutter", "strategic_closure"} <= ids


def test_audit_report_rendering():
    g = GroundSet(3)
    fam = MonotoneFamily.size_at_most(g, 1)
    inst = GameInstance(game_family=U, start=g.full_mask, rounds=1, width=2,
                        ground=g, family=fam)
    report = an.equivalence_audit(inst)
    doc = audit_report_to_jsonable(report)
    assert doc["disagreements"] == 0
    text = audit_report_text(report)
    assert "cutter_threshold_exact" in text and "agree" in text


def test_maximality_ablation_examples():
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    inst = GameInstance(game_family=G_IDEAL, start=g.full_mask, rounds=2,
                        width=6, maximal=False, cut_current=False,
                        ground=g, family=fam)
    rep = an.maximality_ablation(inst)
    assert rep.cutter_verified
    assert rep.restored_winner == CHOOSE

    g3 = GroundSet(3)
    fam3 = MonotoneFamily.size_at_most(g3, 1)
    bad = GameInstance(game_family=G_IDEAL, start=g3.full_mask, rounds=2,
                       width=6, maximal=False, cut_current=False,
                       ground=g3, family=fam3)
    with pytest.raises(ValidationError):
        an.maximality_ablation(bad)  # no two disjoint positive pieces

    g6 = GroundSet(6)
    ideal = Ideal.generated_by(g6, [0b000011])
    inst6 = GameInstance(game_family=G_IDEAL, start=g6.full_mask, rounds=2,
                         width=6, maximal=False, cut_current=False,
                         ground=g6, family=ideal)
    rep6 = an.maximality_ablation(inst6)
    assert rep6.cutter_verified and rep6.restored_winner == CHOOSE


def test_corpus_determinism_and_coverage():
    a = an.generate_corpus(42, per_family=4)
    b = an.generate_corpus(42, per_family=4)
    assert [instance_to_jsonable(x.instance) for x in a] == \
        [instance_to_jsonable(x.instance) for x in b]
    assert len(a) == 20
    families = {x.instance.game_family for x in a}
    assert len(families) == 5
    c = an.generate_corpus(43, per_family=4)
    assert [instance_to_jsonable(x.instance) for x in a] != \
        [instance_to_jsonable(x.instance) for x in c]


def test_checker_solver_agreement_on_ablated_games():
    # with the maximality filter off the winner genuinely varies, and the
    # direct sequence search must agree with backward induction: the cutter
    # wins the unbounded-width game exactly when some sequence is branchless
    g4, g3 = GroundSet(4), GroundSet(3)
    cases = [
        (g3, 1, CHOOSE), (g3, 2, CUT),
        (g4, 1, CHOOSE), (g4, 2, CUT),
    ]
    for ground, rounds, expected in cases:
        fam = MonotoneFamily.size_at_most(ground, 1)
        inst = GameInstance(game_family=G_IDEAL, start=ground.full_mask,
                            rounds=rounds, width=None, maximal=False,
                            cut_current=False, ground=ground, family=fam)
        winner = solve(inst, want_strategy=False).winner
        assert winner == expected, (ground.size, rounds, winner)
        res = an.check_distributivity(fam, ground.full_mask, rounds, None,
                                      an.PLAIN, maximal=False)
        assert res.holds == (winner == CHOOSE)


def test_poset_game_matches_reference_oracle():
    from cutchoose.solver import reference_winner
    p = FinitePoset.from_subsets([0b001, 0b010, 0b011, 0b101, 0b111], 4)
    for family, rounds in (("G_poset", 2), ("BM_poset", 2)):
        inst = GameInstance(game_family=family, start=4, rounds=rounds,
                            width=2 if family == "G_poset" else None,
                            cut_current=False if family == "G_poset" else True,
                            poset=p)
        assert solve(inst, want_strategy=False).winner == \
            reference_winner(inst)
