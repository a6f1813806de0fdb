from unittest.mock import patch

import pytest
from hypothesis import given, seed, settings, strategies as st

from cutchoose import analysis as an
from cutchoose import structures
from cutchoose.engine import (BM_IDEAL, CHOOSE, CUT, EXACT, G_IDEAL, U, WEAK,
                              GameInstance)
from cutchoose.errors import CapacityError, ValidationError
from cutchoose.serialize import (audit_report_text, audit_report_to_jsonable,
                                 instance_to_jsonable)
from cutchoose.solver import solve
from cutchoose.structures import (FiniteBooleanAlgebra, FinitePoset,
                                  GroundSet, Ideal, MonotoneFamily,
                                  positives_below)

from branch_oracle import check_by_sequences, find_branch


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
    assert find_branch(fam, g.full_mask, [(g.full_mask,)],
                       an.PLAIN) == [g.full_mask]


def test_ablation_distributivity_failure_certificate():
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    res = an.check_distributivity(fam, g.full_mask, 2, 2, an.IDEAL_WEAK,
                                  maximal=False)
    assert not res.holds
    assert find_branch(fam, g.full_mask, res.failing_sequence,
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


@st.composite
def _checked_structures(draw):
    """A small family, ideal, poset or algebra and a start it may check."""
    kind = draw(st.sampled_from(["family", "ideal", "poset", "algebra"]))
    if kind == "algebra":
        alg = FiniteBooleanAlgebra(GroundSet(draw(st.integers(2, 4))))
        return alg, draw(st.integers(1, alg.top))
    if kind == "poset":
        labels = sorted(draw(st.sets(st.integers(1, 6), min_size=2,
                                     max_size=6)))
        poset = FinitePoset.from_subsets([*labels, 0b111], len(labels))
        return poset, draw(st.integers(0, poset.size - 1))
    ground = GroundSet(draw(st.integers(2, 4)))
    proper = st.integers(0, ground.full_mask - 1)
    if kind == "ideal":
        # one generator keeps the family union-closed
        family = Ideal.generated_by(ground, [draw(proper)])
    elif draw(st.booleans()):
        family = MonotoneFamily.size_at_most(
            ground, draw(st.integers(0, min(2, ground.size - 1))))
    else:
        family = MonotoneFamily.generated_by(
            ground, draw(st.lists(proper, min_size=1, max_size=2)))
    return family, draw(st.sampled_from(
        positives_below(family, ground.full_mask)))


@given(_checked_structures(),
       st.sampled_from([an.PLAIN, an.UNIFORM, an.IDEAL_WEAK]),
       st.sampled_from([2, 3, None]), st.booleans(), st.integers(1, 3),
       st.sampled_from([5, 50, 500, 5000]))
@settings(max_examples=200, deadline=None)
@seed(401)
def test_check_distributivity_matches_the_per_sequence_oracle(
        checked, variant, width, maximal, rounds, budget):
    # the live-set search against one branch search per sequence: the same
    # verdict, first failing sequence and count, or the same capacity error
    structure, x = checked
    args = (structure, x, rounds, width, variant, maximal)
    with patch.object(an, "SEQUENCE_BUDGET", budget):
        try:
            want = check_by_sequences(*args)
        except CapacityError as err:
            with pytest.raises(CapacityError) as got:
                an.check_distributivity(*args)
            assert (str(got.value), got.value.stats) == (str(err), err.stats)
            return
        res = an.check_distributivity(*args)
    assert (res.holds, res.failing_sequence, res.sequences_checked) == want


_G4 = GroundSet(4)
_POSET = FinitePoset.from_subsets([0b001, 0b010, 0b100, 0b011, 0b111], 4)
_ALGEBRA = FiniteBooleanAlgebra(GroundSet(3))

# case -> (call, the refusal's text)
BAD_ARGUMENTS = {
    "rounds_negative": (lambda: an.check_distributivity(
        _ALGEBRA, _ALGEBRA.top, -1, 2), "rounds must be >= 1"),
    "rounds_zero": (lambda: an.check_distributivity(
        _ALGEBRA, _ALGEBRA.top, 0, 2), "rounds must be >= 1"),
    "family_x_outside_ground": (lambda: an.check_distributivity(
        MonotoneFamily.size_at_most(_G4, 1), 0b10000, 2, 2),
        "x has bits outside the ground set"),
    "family_x_small": (lambda: an.check_distributivity(
        MonotoneFamily.size_at_most(_G4, 1), 0b0001, 2, 2),
        "x must be I-positive"),
    "poset_x_past_the_end": (lambda: an.check_distributivity(
        _POSET, 99, 2, 2), "x must be a poset element, 0..4"),
    "poset_x_negative": (lambda: an.check_distributivity(
        _POSET, -1, 2, 2), "x must be a poset element, 0..4"),
    "variant_unknown": (lambda: an.check_distributivity(
        _ALGEBRA, _ALGEBRA.top, 2, 2, "strong"), "unknown variant 'strong'"),
    "precipitous_rounds_negative": (lambda: an.precipitous_analog(
        Ideal.generated_by(GroundSet(3), [0b100]), -1),
        "rounds must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_check_distributivity_refuses_a_bad_argument(case):
    call, message = BAD_ARGUMENTS[case]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


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


def test_a_candidate_over_its_root_count_enumerates_no_i_partition(
        monkeypatch):
    # an 8-point, 3-round U game has 127 root moves: 127**3 sequences are
    # past the probe's budget before the checker's moves are asked for
    calls = []
    enumerate_i_partitions = structures.enumerate_i_partitions

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_i_partitions(*args, **kwargs)

    monkeypatch.setattr(structures, "enumerate_i_partitions", counted)
    g8, g4 = GroundSet(8), GroundSet(4)
    wide = GameInstance(game_family=U, start=g8.full_mask, rounds=3, width=2,
                        ground=g8, family=MonotoneFamily.size_at_most(g8, 1))
    assert not an._instance_fits(wide)
    assert calls == []
    small = GameInstance(game_family=U, start=g4.full_mask, rounds=1,
                         width=2, ground=g4,
                         family=MonotoneFamily.size_at_most(g4, 1))
    assert an._instance_fits(small)
    assert len(calls) == 2  # the checker's moves, then the unbounded ones


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
